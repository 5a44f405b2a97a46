// Copy-on-write platform forks. A campaign worker boots its platform
// once (image load, initialiser writes), captures a Snapshot, and then
// forks that boot state before every run with Restore instead of
// clearing and reloading memory. The memory side is dirty-page tracked
// (cpu.MemSnapshot), so a fork costs work proportional to what the
// previous run actually wrote — not to the resident set — and performs
// zero heap allocation in steady state. Every fixed-image campaign (the
// FixedImage layout policy of internal/workload) runs through forks; the
// DSR series necessarily rebuilds its image per run (the layout is the
// randomised quantity) but shares the same journalled memory, so its
// reboots stopped churning the allocator too.
package platform

import (
	"dsr/internal/cache"
	"dsr/internal/cpu"
	"dsr/internal/loader"
	"dsr/internal/tlb"
)

// Snapshot is the booted-platform state a fork restores: memory
// contents, every cache and TLB (contents, LRU state, counters,
// placement/replacement generator state), and the image binding.
type Snapshot struct {
	img  *loader.Image
	mem  *cpu.MemSnapshot
	il1  *cache.Snapshot
	dl1  *cache.Snapshot
	l2   *cache.Snapshot
	itlb *tlb.Snapshot
	dtlb *tlb.Snapshot
}

// MemPages returns the number of memory pages the snapshot captured
// (observability and tests).
func (s *Snapshot) MemPages() int { return s.mem.Pages() }

// Snapshot captures the platform's current state for later forking.
// Typically called right after LoadImage, with the machine in the
// canonical booted state.
func (p *Platform) Snapshot() *Snapshot {
	return &Snapshot{
		img:  p.img,
		mem:  p.Mem.Snapshot(),
		il1:  p.IL1.Snapshot(),
		dl1:  p.DL1.Snapshot(),
		l2:   p.L2.Snapshot(),
		itlb: p.ITLB.Snapshot(),
		dtlb: p.DTLB.Snapshot(),
	}
}

// Restore forks the snapshotted state: memory reverts page-by-dirty-page,
// caches and TLBs revert in place, and the snapshot's image is rebound.
// A Run after Restore is bit-identical to a Run after the boot the
// snapshot captured — the fork-equivalence invariant the platform test
// suite pins.
func (p *Platform) Restore(s *Snapshot) {
	p.Mem.Restore(s.mem)
	p.IL1.Restore(s.il1)
	p.DL1.Restore(s.dl1)
	p.L2.Restore(s.l2)
	p.ITLB.Restore(s.itlb)
	p.DTLB.Restore(s.dtlb)
	if p.CPU != nil && s.img != nil {
		p.CPU.SetImage(s.img)
	}
	p.img = s.img
}
