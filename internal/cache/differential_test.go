package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"dsr/internal/mem"
	"dsr/internal/prng"
)

// refCache is an independent, deliberately naive reference model of a
// modulo-placed LRU cache: each set is an ordered slice (most recent
// first), with validity and dirtiness tracked per line. The production
// model must agree with it event for event on arbitrary traces.
type refCache struct {
	lineSize, sets, ways int
	write                WritePolicy
	set                  [][]refLine
}

type refLine struct {
	tag   mem.Addr
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{
		lineSize: cfg.LineSize, sets: cfg.Sets(), ways: cfg.Ways,
		write: cfg.Write,
	}
	r.set = make([][]refLine, r.sets)
	return r
}

type refEvent struct {
	hit       bool
	writeback bool
}

func (r *refCache) index(addr mem.Addr) (int, mem.Addr) {
	line := addr / mem.Addr(r.lineSize)
	return int(line % mem.Addr(r.sets)), line
}

func (r *refCache) find(si int, tag mem.Addr) int {
	for i, l := range r.set[si] {
		if l.tag == tag {
			return i
		}
	}
	return -1
}

// touch moves way i to the MRU position.
func (r *refCache) touch(si, i int) {
	l := r.set[si][i]
	r.set[si] = append(r.set[si][:i], r.set[si][i+1:]...)
	r.set[si] = append([]refLine{l}, r.set[si]...)
}

func (r *refCache) insert(si int, l refLine) (evictedDirty bool) {
	if len(r.set[si]) == r.ways {
		victim := r.set[si][len(r.set[si])-1]
		evictedDirty = victim.dirty
		r.set[si] = r.set[si][:len(r.set[si])-1]
	}
	r.set[si] = append([]refLine{l}, r.set[si]...)
	return evictedDirty
}

func (r *refCache) read(addr mem.Addr) refEvent {
	si, tag := r.index(addr)
	if i := r.find(si, tag); i >= 0 {
		r.touch(si, i)
		return refEvent{hit: true}
	}
	wb := r.insert(si, refLine{tag: tag})
	return refEvent{writeback: wb}
}

func (r *refCache) writeAccess(addr mem.Addr) refEvent {
	si, tag := r.index(addr)
	i := r.find(si, tag)
	switch r.write {
	case WriteThroughNoAllocate:
		if i >= 0 {
			r.touch(si, i)
			return refEvent{hit: true}
		}
		return refEvent{}
	default: // WriteBackAllocate
		if i >= 0 {
			r.set[si][i].dirty = true
			r.touch(si, i)
			return refEvent{hit: true}
		}
		wb := r.insert(si, refLine{tag: tag, dirty: true})
		return refEvent{writeback: wb}
	}
}

// countingBackend counts writebacks reaching the next level.
type countingBackend struct{ writes int }

func (c *countingBackend) Read(mem.Addr, int) mem.Cycles  { return 0 }
func (c *countingBackend) Write(mem.Addr, int) mem.Cycles { c.writes++; return 0 }

// TestDifferentialAgainstReference drives the production cache and the
// reference model with identical random traces and checks that every
// access agrees on hit/miss and that writeback counts match.
func TestDifferentialAgainstReference(t *testing.T) {
	cfgs := []Config{
		{Name: "dm", Size: 512, LineSize: 16, Ways: 1, Write: WriteBackAllocate},
		{Name: "2w", Size: 1024, LineSize: 16, Ways: 2, Write: WriteBackAllocate},
		{Name: "4w-wt", Size: 2048, LineSize: 32, Ways: 4, Write: WriteThroughNoAllocate},
		{Name: "fa", Size: 256, LineSize: 16, Ways: 16, Write: WriteBackAllocate},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			f := func(seed uint64, opsRaw []uint16) bool {
				back := &countingBackend{}
				c := New(cfg, back)
				r := newRefCache(cfg)
				src := prng.NewMWC(seed)
				for _, op := range opsRaw {
					// Confine addresses to a few way-spans so conflicts
					// are frequent.
					addr := mem.Addr(op%2048) * 4
					var hit bool
					var ev refEvent
					before := c.Counters().Hits
					if prng.Intn(src, 3) == 0 {
						c.Write(addr, 4)
						ev = r.writeAccess(addr)
					} else {
						c.Read(addr, 4)
						ev = r.read(addr)
					}
					hit = c.Counters().Hits > before
					if hit != ev.hit {
						t.Logf("%s: divergence at addr %#x: model hit=%v ref hit=%v",
							cfg.Name, addr, hit, ev.hit)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialWritebackCount checks the dirty-eviction behaviour in
// bulk: after a long write-heavy trace plus a full flush, the number of
// writebacks reaching the next level must equal the reference's count
// plus its remaining dirty lines.
func TestDifferentialWritebackCount(t *testing.T) {
	cfg := Config{Name: "wb", Size: 1024, LineSize: 16, Ways: 2, Write: WriteBackAllocate}
	f := func(seed uint64) bool {
		back := &countingBackend{}
		c := New(cfg, back)
		r := newRefCache(cfg)
		refWb := 0
		src := prng.NewMWC(seed)
		for i := 0; i < 3000; i++ {
			addr := mem.Addr(prng.Intn(src, 4096)) * 4
			if prng.Intn(src, 2) == 0 {
				c.Write(addr, 4)
				if r.writeAccess(addr).writeback {
					refWb++
				}
			} else {
				c.Read(addr, 4)
				if r.read(addr).writeback {
					refWb++
				}
			}
		}
		c.FlushAll()
		for si := range r.set {
			for _, l := range r.set[si] {
				if l.dirty {
					refWb++
				}
			}
		}
		return back.writes == refWb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func proximaL2() Config {
	return Config{
		Name: "L2", Size: 32 * 1024, LineSize: 32, Ways: 1,
		HitLatency: 6, Placement: PlacementModulo,
		Replacement: ReplacementLRU, Write: WriteBackAllocate,
	}
}

// recordingBackend logs every transaction reaching the next level and
// charges an address-dependent latency, so both the order and the sum
// of writebacks are observable.
type recordingBackend struct{ log []access }

type access struct {
	write bool
	addr  mem.Addr
	size  int
}

func (r *recordingBackend) Read(a mem.Addr, n int) mem.Cycles {
	r.log = append(r.log, access{false, a, n})
	return 1 + mem.Cycles(a>>4)%7
}

func (r *recordingBackend) Write(a mem.Addr, n int) mem.Cycles {
	r.log = append(r.log, access{true, a, n})
	return 2 + mem.Cycles(a>>4)%5
}

// fullScanFlush is the reference flush: visit every line in index
// order, write back the dirty ones and invalidate the valid ones.
func fullScanFlush(c *Cache) mem.Cycles {
	c.mruIdx, c.mruIdx2 = -1, -1
	var lat mem.Cycles
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty {
			c.ctr.Writebacks++
			lat += c.next.Write(l.tag*mem.Addr(c.cfg.LineSize), c.cfg.LineSize)
		}
		c.ctr.Invalidations++
		l.valid = false
		l.dirty = false
	}
	return lat
}

// TestFlushAllDifferential drives two identical caches through random
// mixes of reads, writes, range invalidations and writebacks,
// snapshot/restore and flushes; one flushes through the valid-line
// bitmap, the other through fullScanFlush. The next level must see the
// same transactions in the same order, every operation must return the
// same latency and leave the same counters and lines, and the bitmap
// must mirror the valid bits after every operation.
func TestFlushAllDifferential(t *testing.T) {
	for _, geom := range []Config{proximaIL1(), proximaDL1(), proximaL2()} {
		for _, rand := range []bool{false, true} {
			cfg := geom
			if rand {
				cfg.Placement, cfg.Replacement = PlacementHashRandom, ReplacementRandom
			}
			t.Run(cfg.Name+"/"+cfg.Placement.String(), func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					flushDifferential(t, cfg, seed, 3000)
				}
			})
		}
	}
}

func flushDifferential(t *testing.T, cfg Config, seed uint64, ops int) {
	t.Helper()
	gotNext, refNext := &recordingBackend{}, &recordingBackend{}
	got, ref := New(cfg, gotNext), New(cfg, refNext)
	var gotSnap, refSnap *Snapshot
	src := prng.NewMWC(seed)
	// Addresses span four cache sizes, so sets conflict and evict.
	span := 4 * cfg.Size
	addr := func() mem.Addr { return mem.Addr(prng.Intn(src, span)) &^ 3 }
	for op := 0; op < ops; op++ {
		var name string
		var gl, rl mem.Cycles
		switch k := prng.Intn(src, 100); {
		case k < 45:
			name = "read"
			a, n := addr(), 4*(1+prng.Intn(src, 3))
			gl, rl = got.Read(a, n), ref.Read(a, n)
		case k < 80:
			name = "write"
			a, n := addr(), 4*(1+prng.Intn(src, 3))
			gl, rl = got.Write(a, n), ref.Write(a, n)
		case k < 86:
			name = "invalidate"
			a, n := addr(), 1+prng.Intn(src, 4*cfg.LineSize)
			gl, rl = got.InvalidateRange(a, n), ref.InvalidateRange(a, n)
		case k < 91:
			name = "writeback"
			a, n := addr(), 1+prng.Intn(src, 4*cfg.LineSize)
			gl, rl = got.WritebackRange(a, n), ref.WritebackRange(a, n)
		case k < 94:
			name = "snapshot"
			gotSnap, refSnap = got.Snapshot(), ref.Snapshot()
		case k < 96:
			name = "restore"
			if gotSnap != nil {
				got.Restore(gotSnap)
				ref.Restore(refSnap)
			}
		case k < 97:
			name = "reseed"
			s := prng.Intn(src, 1<<30)
			got.ReseedPlacement(uint64(s))
			ref.ReseedPlacement(uint64(s))
		default:
			name = "flush"
			gl, rl = got.FlushAll(), fullScanFlush(ref)
		}
		where := func() string { return fmt.Sprintf("seed %d op %d (%s)", seed, op, name) }
		if gl != rl {
			t.Fatalf("%s: latency %d, reference %d", where(), gl, rl)
		}
		if got.Counters() != ref.Counters() {
			t.Fatalf("%s: counters %+v, reference %+v", where(), got.Counters(), ref.Counters())
		}
		if len(gotNext.log) != len(refNext.log) {
			t.Fatalf("%s: %d next-level transactions, reference %d", where(), len(gotNext.log), len(refNext.log))
		}
		for i := range gotNext.log {
			if gotNext.log[i] != refNext.log[i] {
				t.Fatalf("%s: next-level transaction %d is %+v, reference %+v", where(), i, gotNext.log[i], refNext.log[i])
			}
		}
		gotNext.log, refNext.log = gotNext.log[:0], refNext.log[:0]
		for i := range got.lines {
			if got.lines[i] != ref.lines[i] {
				t.Fatalf("%s: line %d is %+v, reference %+v", where(), i, got.lines[i], ref.lines[i])
			}
			if bit := got.validBits[i>>6]>>(i&63)&1 == 1; bit != got.lines[i].valid {
				t.Fatalf("%s: valid bitmap bit %d = %v, line valid = %v", where(), i, bit, got.lines[i].valid)
			}
		}
	}
}
