package leak

import (
	"math"
	"strings"
	"testing"

	"dsr/internal/analysis/cachedom"
	"dsr/internal/analysis/wcet"
	"dsr/internal/isa"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
)

func mustProgram(t *testing.T, name string, fns ...*prog.Function) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: name, Entry: "main"}
	for _, f := range fns {
		if err := p.AddFunction(f); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func diagText(r *Report) string {
	var sb strings.Builder
	for _, d := range r.Diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// straightLine is a loop-free main: a handful of arithmetic ops and a
// halt, no data accesses.
func straightLine() *prog.Function {
	return prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 1).
		AddI(isa.L0, isa.L0, 2).
		Mov(isa.O0, isa.L0).
		Halt().
		MustBuild()
}

// --- multiset partition counting ------------------------------------------

func TestMultisetBitsExact(t *testing.T) {
	cases := []struct {
		k, s, w int
		classes float64
	}{
		{0, 16, 4, 1},   // only the empty cache
		{1, 16, 4, 2},   // t=0 or t=1
		{2, 16, 4, 4},   // {}, {1}, {2}, {1,1}
		{3, 16, 4, 7},   // + {3}, {2,1}, {1,1,1}
		{2, 1, 4, 3},    // one set: totals 0,1,2
		{3, 16, 1, 4},   // direct-mapped: totals 0..3
		{99, 16, 1, 17}, // capped at S sets
	}
	for _, c := range cases {
		got := multisetBits(c.k, c.s, c.w)
		want := math.Log2(c.classes)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("multisetBits(%d,%d,%d) = %.6f; want log2(%v) = %.6f",
				c.k, c.s, c.w, got, c.classes, want)
		}
	}
}

func TestMultisetBitsMonotoneInK(t *testing.T) {
	prev := -1.0
	for k := 0; k <= 600; k += 7 {
		b := multisetBits(k, 128, 4)
		if b < prev {
			t.Fatalf("multisetBits not monotone at K=%d: %f < %f", k, b, prev)
		}
		prev = b
	}
}

// --- per-set counter -------------------------------------------------------

func TestSetCounterVectorBits(t *testing.T) {
	dom := newTestDom(t)
	sc := newSetCounter(dom)
	// Two distinct lines in one set: occupancy in [0,2] -> log2(3).
	sc.AddRange(0, 31)
	sc.AddRange(128*32, 128*32+31)
	want := math.Log2(3)
	if got := sc.vectorBits(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("vectorBits = %f; want %f", got, want)
	}
	if sc.totalLines() != 2 || sc.touchedSets() != 1 {
		t.Fatalf("lines=%d sets=%d; want 2, 1", sc.totalLines(), sc.touchedSets())
	}
	sc.setTop()
	if got := sc.vectorBits(); math.Abs(got-128*math.Log2(5)) > 1e-9 {
		t.Fatalf("top vectorBits = %f; want 128*log2(5)", got)
	}
}

func newTestDom(t *testing.T) *cachedom.Dom {
	t.Helper()
	return &cachedom.Dom{LineSz: 32, NSets: 128, NWays: 4}
}

// --- deterministic analysis ------------------------------------------------

func TestDetStraightLine(t *testing.T) {
	p := mustProgram(t, "straight", straightLine())
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	if len(r.Channels) != 3 {
		t.Fatalf("channels = %d; want IL1, DL1, L2", len(r.Channels))
	}
	il1 := r.Channels[0]
	if il1.Cache != "IL1" || il1.AccessBits <= 0 {
		t.Fatalf("IL1 channel = %+v; want positive bits", il1)
	}
	// Det mode with modulo caches: the modeled bound IS the vector bound.
	for _, c := range r.Channels {
		if c.AccessBits != c.EnvelopeBits {
			t.Fatalf("%s: det AccessBits %f != EnvelopeBits %f", c.Cache, c.AccessBits, c.EnvelopeBits)
		}
	}
	// No data accesses, no stack traffic: the DL1 footprint is empty.
	if dl1 := r.Channels[1]; dl1.FootprintLines != 0 || dl1.AccessBits != 0 {
		t.Fatalf("DL1 = %+v; want empty", dl1)
	}
	if r.LayoutEntropyBits != 0 || r.Guessing != nil {
		t.Fatalf("det mode reported layout entropy %f", r.LayoutEntropyBits)
	}
	if r.TraceBits <= 0 || r.TraceSites == 0 {
		t.Fatalf("trace: bits=%f sites=%d; want positive", r.TraceBits, r.TraceSites)
	}
}

func TestDetLoopScalesTrace(t *testing.T) {
	small := Analyze(mustProgram(t, "l", countedLoop(4)), Config{})
	big := Analyze(mustProgram(t, "l", countedLoop(64)), Config{})
	if !small.Bounded || !big.Bounded {
		t.Fatalf("not bounded:\n%s\n%s", diagText(small), diagText(big))
	}
	if big.TraceBits <= small.TraceBits {
		t.Fatalf("trace bits did not scale with the loop bound: %f <= %f",
			big.TraceBits, small.TraceBits)
	}
	// The access channel counts lines, not executions: same footprint.
	if small.AccessBits != big.AccessBits {
		t.Fatalf("access bits should be iteration-independent: %f != %f",
			small.AccessBits, big.AccessBits)
	}
}

func countedLoop(n int32) *prog.Function {
	return prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, n).
		Bl("loop").
		Mov(isa.O0, isa.L0).
		Halt().
		MustBuild()
}

func TestUnknownAddressSaturatesDataSide(t *testing.T) {
	// Load through a data-dependent pointer: the DL1/L2 data footprints
	// must saturate (warning, not refusal).
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		SetI(isa.L0, 0x5000_0000).
		Ld(isa.L1, isa.L0, 0).
		Op3(isa.Sll, isa.L1, isa.L1, isa.L1). // make the next address data-dependent
		Ld(isa.L2, isa.L1, 0).
		Halt().
		MustBuild()
	p := mustProgram(t, "wild", f)
	r := Analyze(p, Config{})
	if !r.Bounded {
		t.Fatalf("not bounded:\n%s", diagText(r))
	}
	dl1 := r.Channels[1]
	if dl1.TouchedSets != 256 {
		t.Fatalf("DL1 touched sets = %d; want saturated (256)", dl1.TouchedSets)
	}
	if !strings.Contains(diagText(r), "no statically known address") {
		t.Fatalf("missing saturation warning:\n%s", diagText(r))
	}
}

func TestUnboundedLoopRefused(t *testing.T) {
	f := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		SetI(isa.L0, 0x5000_0000).
		Ld(isa.L1, isa.L0, 0). // data-dependent trip count
		Label("loop").
		SubI(isa.L1, isa.L1, 1).
		CmpI(isa.L1, 0).
		Bg("loop").
		Halt().
		MustBuild()
	p := mustProgram(t, "unbounded", f)
	r := Analyze(p, Config{})
	if r.Bounded {
		t.Fatal("analysis accepted a program with an unbounded loop")
	}
}

// --- mode chain on the real control application ----------------------------

func analyzeControl(t *testing.T, mode wcet.Mode) *Report {
	t.Helper()
	p, err := spaceapp.BuildControl()
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeMode(p, mode, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Bounded {
		t.Fatalf("mode %s not bounded:\n%s", mode, diagText(r))
	}
	return r
}

func TestControlModeChain(t *testing.T) {
	det := analyzeControl(t, wcet.ModeDet)
	eager := analyzeControl(t, wcet.ModeDSREager)
	lazy := analyzeControl(t, wcet.ModeDSRLazy)

	// The monotonicity chain on the access-based channel: randomisation
	// only removes attacker information, and lazy relocation adds
	// observable traffic over eager.
	if !(eager.AccessBits <= lazy.AccessBits) {
		t.Errorf("access chain violated: eager %f > lazy %f", eager.AccessBits, lazy.AccessBits)
	}
	if !(lazy.AccessBits <= det.AccessBits) {
		t.Errorf("access chain violated: lazy %f > det %f", lazy.AccessBits, det.AccessBits)
	}
	if det.AccessBits <= eager.AccessBits {
		t.Errorf("DSR shows no access-channel benefit: det %f <= eager %f",
			det.AccessBits, eager.AccessBits)
	}

	// Per-cache chain too.
	for i := range det.Channels {
		if eager.Channels[i].AccessBits > det.Channels[i].AccessBits {
			t.Errorf("%s: eager %f > det %f", det.Channels[i].Cache,
				eager.Channels[i].AccessBits, det.Channels[i].AccessBits)
		}
	}

	// The trace channel is NOT reduced by DSR; the analyzer must not
	// pretend otherwise.
	if eager.TraceBits < det.TraceBits {
		t.Errorf("DSR trace bits %f below det %f: the trace channel cannot shrink under randomisation",
			eager.TraceBits, det.TraceBits)
	}

	// DSR modes report layout entropy and a guessing table.
	for _, r := range []*Report{eager, lazy} {
		if r.LayoutEntropyBits <= 0 {
			t.Errorf("mode %s: no layout entropy", r.Mode)
		}
		if len(r.Guessing) == 0 {
			t.Errorf("mode %s: no guessing table", r.Mode)
		}
		prev := math.Inf(1)
		for _, g := range r.Guessing {
			if g.ResidualBits > prev {
				t.Errorf("mode %s: residual entropy not monotone: %+v", r.Mode, r.Guessing)
			}
			prev = g.ResidualBits
		}
	}
	if det.LayoutEntropyBits != 0 {
		t.Errorf("det mode reported layout entropy %f", det.LayoutEntropyBits)
	}
}

func TestReportFormatAndJSON(t *testing.T) {
	r := analyzeControl(t, wcet.ModeDSREager)
	text := r.Format()
	for _, want := range []string{"prime+probe", "trace-based", "layout entropy", "IL1", "L2"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"access_bits_total"`, `"trace_bits"`, `"guessing"`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}
