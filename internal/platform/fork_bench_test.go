package platform

import (
	"testing"

	"dsr/internal/loader"
)

// BenchmarkPlatformFork measures the per-run campaign protocol on a
// fixed layout: fork the booted snapshot (dirty-page restore, cache/TLB
// state copy, image rebind) and execute. This is the unit of work the
// baseline/HWRand/positioned series repeat thousands of times. Its
// steady-state allocation must stay near zero: the fork is the
// mechanism that removed the campaign's shared GC pressure.
func BenchmarkPlatformFork(b *testing.B) {
	p := walkerProgram(b, 512)
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		b.Fatal(err)
	}
	pl := New(ProximaLEON3())
	pl.LoadImage(img)
	snap := pl.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Restore(snap)
		if _, err := pl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
