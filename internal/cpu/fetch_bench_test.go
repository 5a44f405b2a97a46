package cpu

import (
	"testing"

	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prog"
	"dsr/internal/tlb"
)

// Fetch/dispatch microbenchmarks: the end-to-end per-instruction cost
// of the core. benchLoopProgram executes a counted arithmetic loop —
// the straight-line fetch fast path (same function, line, page) broken
// only by the backward branch every iteration.

const benchLoopIters = 10_000

func benchLoopProgram(b *testing.B) *loader.Image {
	b.Helper()
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, benchLoopIters).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		OpI(isa.Xor, isa.L2, isa.L0, 0x55).
		OpI(isa.And, isa.L3, isa.L2, 0xFF).
		Op3(isa.Add, isa.L4, isa.L3, isa.L0).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "fetchbench", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		b.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// proximaFronts builds real IL1/DL1/TLBs over a flat backend, so the
// benchmark exercises the devirtualised concrete-cache fetch path.
func proximaFronts() (icache, dcache *cache.Cache, itlb, dtlb *tlb.TLB) {
	flat := nullMem{}
	il1 := cache.New(cache.Config{
		Name: "IL1", Size: 16 * 1024, LineSize: 32, Ways: 4,
		HitLatency: 0, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteBackAllocate,
	}, flat)
	dl1 := cache.New(cache.Config{
		Name: "DL1", Size: 16 * 1024, LineSize: 16, Ways: 4,
		HitLatency: 0, Placement: cache.PlacementModulo,
		Replacement: cache.ReplacementLRU, Write: cache.WriteThroughNoAllocate,
	}, flat)
	it := tlb.New(tlb.Config{Name: "ITLB", Entries: 64, WalkReads: 3}, flat, 0x7000_0000)
	dt := tlb.New(tlb.Config{Name: "DTLB", Entries: 64, WalkReads: 3}, flat, 0x7000_0000)
	return il1, dl1, it, dt
}

// benchFetchLoop times full runs of the loop on c and reports instrs/s,
// the simulator's effective instruction rate. It fails the benchmark
// unless the execution path the benchmark names ran: the engine fills
// the decode cache, the interpreter never touches it.
func benchFetchLoop(b *testing.B, c *CPU, engine bool) {
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c.Reset(stackTop)
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += c.Counters().Instrs
	}
	b.StopTimer()
	if ran := len(c.decCache) > 0; ran != engine {
		b.Fatalf("threaded-code engine ran = %v, benchmark names engine = %v", ran, engine)
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFetchLoopEngine is the headline per-instruction cost: a
// tight counted loop through real zero-latency L1s and TLBs, which
// lets the threaded-code engine run.
func BenchmarkFetchLoopEngine(b *testing.B) {
	img := benchLoopProgram(b)
	il1, dl1, it, dt := proximaFronts()
	benchFetchLoop(b, New(NewDefaultConfig(), img, il1, dl1, it, dt, NewMemory()), true)
}

// BenchmarkFetchLoopInterpreter is the same loop and hierarchy pinned
// to the giant-switch interpreter: the engine's speedup is the ratio.
func BenchmarkFetchLoopInterpreter(b *testing.B) {
	img := benchLoopProgram(b)
	il1, dl1, it, dt := proximaFronts()
	c := New(NewDefaultConfig(), img, il1, dl1, it, dt, NewMemory())
	c.SetForceInterpreter(true)
	benchFetchLoop(b, c, false)
}

// BenchmarkFetchLoopNullHierarchyInterpreter is the loop over
// zero-latency backends with no caches or TLBs: the interpreter's
// dispatch cost without hierarchy modelling. It has no engine variant:
// the engine needs a concrete IL1 to prove fetches free, so engineOK is
// false here.
func BenchmarkFetchLoopNullHierarchyInterpreter(b *testing.B) {
	img := benchLoopProgram(b)
	benchFetchLoop(b, New(NewDefaultConfig(), img, nullMem{}, nullMem{}, nil, nil, NewMemory()), false)
}

// BenchmarkChargeDisabledTelemetry pins the zero-overhead guarantee of
// the disabled-telemetry charge path: with a nil Attribution, charge
// must be one addition plus one nil check.
func BenchmarkChargeDisabledTelemetry(b *testing.B) {
	img := benchLoopProgram(b)
	c := New(NewDefaultConfig(), img, nullMem{}, nullMem{}, nil, nil, NewMemory())
	c.Reset(stackTop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.charge(0, 1)
	}
	b.StopTimer()
	if c.Cycles() < mem.Cycles(b.N) {
		b.Fatal("charge lost cycles")
	}
}

// TestChargeDisabledAllocFree: the disabled-telemetry charge path and
// the whole fetch loop must be allocation-free (the trace append is the
// only allocating step in steady state, and this program has no
// ipoints).
func TestChargeDisabledAllocFree(t *testing.T) {
	fb := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		MovI(isa.L1, 64).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		Cmp(isa.L0, isa.L1).
		Bl("loop").
		Halt()
	p := &prog.Program{Name: "allocfree", Entry: "main"}
	if err := p.AddFunction(fb.MustBuild()); err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		t.Fatal(err)
	}
	il1, dl1, it, dt := proximaFronts()
	c := New(NewDefaultConfig(), img, il1, dl1, it, dt, NewMemory())
	c.Reset(stackTop)
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Reset(stackTop)
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state run allocates %v times", n)
	}
}
