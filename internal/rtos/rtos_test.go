package rtos

import (
	"reflect"
	"testing"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/isa"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/workload"
)

// loopProgram spins for roughly `iters` loop iterations then halts,
// returning iters in %o0.
func loopProgram(t *testing.T, name string, iters int32) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: name, Entry: "main"}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0).
		Label("loop").
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, iters).
		Bl("loop").
		Mov(isa.O0, isa.L0).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return p
}

// hostPartition hosts wl's worker-0 host, on the case study's
// platform, in a partition.
func hostPartition(t *testing.T, name string, crit Criticality, wl *workload.Workload) *Partition {
	t.Helper()
	wl.Platform = platform.ProximaLEON3()
	h, err := wl.Host(0)
	if err != nil {
		t.Fatal(err)
	}
	return &Partition{Name: name, Criticality: crit, Runner: h}
}

// imagePartition hosts p as a fixed image with no input: every
// activation forks the booted image.
func imagePartition(t *testing.T, name string, p *prog.Program, crit Criticality) *Partition {
	t.Helper()
	return hostPartition(t, name, crit, &workload.Workload{
		Build: func() (*prog.Program, error) { return p, nil },
	})
}

// loopPartition hosts loopProgram(iters) as a fixed image.
func loopPartition(t *testing.T, name string, iters int32, crit Criticality) *Partition {
	t.Helper()
	return imagePartition(t, name, loopProgram(t, name, iters), crit)
}

// certify analyzes spec under policy and returns its certificate.
func certify(t *testing.T, spec *schedfeas.Spec, policy schedfeas.Policy) *schedfeas.Certificate {
	t.Helper()
	rep := schedfeas.Analyze(spec, policy, schedfeas.Config{})
	if rep.Cert == nil {
		t.Fatalf("policy %v not certifiable: %v", policy, rep.Violations)
	}
	return rep.Cert
}

// frameSpec is a 1 s frame on the 80 MHz core hosting each task once
// per frame.
func frameSpec(tasks ...schedfeas.Task) *schedfeas.Spec {
	for i := range tasks {
		tasks[i].PeriodMillis = 1000
	}
	return &schedfeas.Spec{FrameMillis: 1000, CyclesPerMilli: 80_000, Tasks: tasks}
}

// cyclicExecutive builds the executive over parts with the fixed cyclic
// schedule of spec (Policy{}); each partition takes its certified period.
func cyclicExecutive(t *testing.T, spec *schedfeas.Spec, parts ...*Partition) *RandomizedExecutive {
	t.Helper()
	ex, err := NewRandomizedExecutive(DefaultConfig(), parts, certify(t, spec, schedfeas.Policy{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// rogueSpec declares a processing task with a small WCET in a 10 ms
// window at the frame start, and the control task at 100 ms.
func rogueSpec() *schedfeas.Spec {
	return frameSpec(
		schedfeas.Task{Name: "processing", BudgetMillis: 10, WCETCycles: 1000},
		schedfeas.Task{Name: "control", BudgetMillis: 300, PhaseMillis: 100, Criticality: 1},
	)
}

func TestSchedulerRunsWindowsInOrder(t *testing.T) {
	ctrl := loopPartition(t, "control", 100, HighCriticality)
	proc := loopPartition(t, "processing", 50, LowCriticality)
	ex := cyclicExecutive(t, caseStudySpec(), ctrl, proc)
	acts, err := ex.RunMajorFrames(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3*11 {
		t.Fatalf("activations=%d, want 33", len(acts))
	}
	// Nominal order per frame: processing k at k*100 ms, control at
	// 60 ms, between processing 0 and 1.
	for i, a := range acts {
		frame, w := i/11, i%11
		wantPart, wantOff, wantAct := "processing", 0, uint64(0)
		switch {
		case w == 1:
			wantPart, wantOff, wantAct = "control", 60, uint64(frame)
		case w == 0:
			wantAct = uint64(frame * 10)
		default:
			wantOff, wantAct = (w-1)*100, uint64(frame*10+w-1)
		}
		if a.Partition != wantPart || a.OffsetMillis != wantOff || a.MajorFrame != frame || a.Window != w {
			t.Errorf("activation %d: %s at %dms frame %d window %d, want %s at %dms frame %d window %d",
				i, a.Partition, a.OffsetMillis, a.MajorFrame, a.Window, wantPart, wantOff, frame, w)
		}
		// Activation numbers advance per partition, across frames.
		if a.Activation != wantAct {
			t.Errorf("activation %d (%s) numbered %d, want %d", i, a.Partition, a.Activation, wantAct)
		}
		if !a.Completed {
			t.Errorf("activation %d overran unexpectedly", i)
		}
	}
}

func TestTemporalIsolationCutsOverrun(t *testing.T) {
	// A "malfunctioning" processing task that spins far beyond the WCET
	// it declared must be cut off, and the control task must still run.
	ctrl := loopPartition(t, "control", 100, HighCriticality)
	rogue := loopPartition(t, "processing", 100_000_000, LowCriticality)
	ex := cyclicExecutive(t, rogueSpec(), ctrl, rogue)
	acts, err := ex.RunMajorFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	if !acts[0].Overrun() {
		t.Error("rogue partition not flagged as overrun")
	}
	if acts[0].Cycles < acts[0].Budget {
		t.Error("overrun cut before the budget")
	}
	if acts[1].Overrun() {
		t.Error("control task affected by rogue partition")
	}
	if acts[1].Result.ExitValue != 100 {
		t.Errorf("control result=%d, want 100", acts[1].Result.ExitValue)
	}
}

// walkProgram sums a table in a loop; its timing depends on where the
// table and code land in the caches, so DSR activations show jitter.
func walkProgram(t *testing.T, name string, iters int32) *prog.Program {
	t.Helper()
	p := &prog.Program{Name: name, Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "tbl", Size: 4096, Align: 8}); err != nil {
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		MovI(isa.L0, 0). // i
		MovI(isa.L1, 0). // sum
		Set(isa.L2, "tbl").
		Label("loop").
		AndI(isa.L3, isa.L0, 1023).
		SllI(isa.L3, isa.L3, 2).
		Add(isa.L4, isa.L2, isa.L3).
		Ld(isa.L5, isa.L4, 0).
		Add(isa.L1, isa.L1, isa.L5).
		AddI(isa.L0, isa.L0, 1).
		CmpI(isa.L0, iters).
		Bl("loop").
		Mov(isa.O0, isa.L0).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDSRHostRerandomisesPerActivation(t *testing.T) {
	part := hostPartition(t, "control", HighCriticality, &workload.Workload{
		Build:  func() (*prog.Program, error) { return walkProgram(t, "control", 200), nil },
		Layout: workload.DSR,
		Seed:   func(i int) uint64 { return 1000 + uint64(i) },
	})
	ex := cyclicExecutive(t, frameSpec(schedfeas.Task{Name: "control", BudgetMillis: 500}), part)
	acts, err := ex.RunMajorFrames(12)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for _, a := range acts {
		if a.Result.ExitValue != 200 {
			t.Fatalf("functional result=%d under DSR", a.Result.ExitValue)
		}
		distinct[uint64(a.Cycles)] = true
	}
	if len(distinct) < 3 {
		t.Errorf("only %d distinct execution times across 12 DSR activations", len(distinct))
	}
}

func TestFixedImageHostIsolatesRuns(t *testing.T) {
	// A program that increments a global counter would drift unless
	// every activation forks the booted image afresh.
	p := &prog.Program{Name: "counter", Entry: "main"}
	if err := p.AddData(&prog.DataObject{Name: "count", Size: 4}); err != nil {
		t.Fatal(err)
	}
	b := prog.NewFunc("main", prog.MinFrame).
		Prologue().
		Set(isa.L0, "count").
		Ld(isa.L1, isa.L0, 0).
		AddI(isa.L1, isa.L1, 1).
		St(isa.L1, isa.L0, 0).
		Mov(isa.O0, isa.L1).
		Halt()
	if err := p.AddFunction(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	part := imagePartition(t, "counter", p, LowCriticality)
	ex := cyclicExecutive(t, frameSpec(schedfeas.Task{Name: "counter", BudgetMillis: 100}), part)
	acts, err := ex.RunMajorFrames(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acts {
		if a.Result.ExitValue != 1 {
			t.Errorf("activation %d saw stale memory: count=%d", i, a.Result.ExitValue)
		}
	}
}

func TestSchedulerRejectsDuplicateNames(t *testing.T) {
	// The executive keys partitions by name, so two distinct partitions
	// sharing one would silently share a schedule slot.
	a := loopPartition(t, "control", 10, HighCriticality)
	b := loopPartition(t, "control", 10, LowCriticality)
	spec := frameSpec(schedfeas.Task{Name: "control", BudgetMillis: 10})
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{a, b}, certify(t, spec, schedfeas.Policy{}), 1); err == nil {
		t.Fatal("two distinct partitions sharing a name accepted")
	}
}

// caseStudySpec is the paper's two-task frame (the schedfeas tests'
// spec): control once per frame in a 30 ms window at 60 ms, processing
// every 100 ms in a 60 ms window.
func caseStudySpec() *schedfeas.Spec {
	return &schedfeas.Spec{
		FrameMillis:    1000,
		CyclesPerMilli: 80_000,
		Tasks: []schedfeas.Task{
			{Name: "control", PeriodMillis: 1000, BudgetMillis: 30, PhaseMillis: 60,
				Criticality: 1, JitterMillis: -1},
			{Name: "processing", PeriodMillis: 100, BudgetMillis: 60, PhaseMillis: 0,
				Criticality: 0, JitterMillis: 40},
		},
	}
}

// caseStudyCert certifies the case-study frame under policy.
func caseStudyCert(t *testing.T, policy schedfeas.Policy) *schedfeas.Certificate {
	t.Helper()
	return certify(t, caseStudySpec(), policy)
}

func fullPolicy() schedfeas.Policy {
	return schedfeas.Policy{SegmentChoice: true, PermuteOrder: true, SlotJitterMillis: 40}
}

func randomizedPair(t *testing.T) []*Partition {
	t.Helper()
	ctrl := loopPartition(t, "control", 100, HighCriticality)
	ctrl.PeriodMillis = 1000
	proc := loopPartition(t, "processing", 50, LowCriticality)
	proc.PeriodMillis = 100
	return []*Partition{ctrl, proc}
}

func TestRandomizedExecutiveRunsCertifiedFrames(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 7)
	if err != nil {
		t.Fatal(err)
	}
	acts, err := ex.RunMajorFrames(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 5*11 {
		t.Fatalf("activations=%d, want 55 (10 processing + 1 control per frame)", len(acts))
	}
	for i, a := range acts {
		if a.Overrun() {
			t.Fatalf("activation %d overran a certified window", i)
		}
	}
	// The control window must actually move between frames — that is the
	// whole point of the randomisation.
	offsets := map[int]bool{}
	for _, a := range ByPartition(acts, "control") {
		offsets[a.OffsetMillis] = true
	}
	if len(offsets) < 2 {
		t.Errorf("control offsets %v constant across 5 frames", offsets)
	}
	// Stateless activation numbering: processing activations are
	// frame*10+k and appear in within-frame order.
	for i, a := range ByPartition(acts, "processing") {
		if a.Activation != uint64(i) {
			t.Errorf("processing activation %d numbered %d", i, a.Activation)
		}
	}
}

func TestRandomizedExecutiveFramePurity(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 99)
	if err != nil {
		t.Fatal(err)
	}
	once, err := ex.RunFrame(3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ex.RunFrame(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(once, again) {
		t.Fatal("RunFrame(3) is not a pure function of the frame index")
	}
	all, err := ex.RunMajorFrames(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all[3*11:], once) {
		t.Fatal("RunMajorFrames frame 3 differs from RunFrame(3)")
	}
}

func TestRandomizedExecutiveMembership(t *testing.T) {
	ex, err := NewRandomizedExecutive(DefaultConfig(), randomizedPair(t), caseStudyCert(t, fullPolicy()), 1234)
	if err != nil {
		t.Fatal(err)
	}
	cert := ex.Certificate()
	for frame := 0; frame < 100; frame++ {
		fs, err := ex.DrawFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if err := cert.Contains(fs); err != nil {
			t.Fatalf("frame %d outside certified support: %v", frame, err)
		}
	}
}

func TestRandomizedExecutiveValidation(t *testing.T) {
	parts := randomizedPair(t)
	cert := caseStudyCert(t, fullPolicy())
	if _, err := NewRandomizedExecutive(DefaultConfig(), parts, nil, 1); err == nil {
		t.Error("nil certificate accepted")
	}
	if _, err := NewRandomizedExecutive(Config{}, parts, cert, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewRandomizedExecutive(Config{MajorFrameMillis: 500, CyclesPerMilli: 80_000}, parts, cert, 1); err == nil {
		t.Error("frame mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(Config{MajorFrameMillis: 1000, CyclesPerMilli: 1}, parts, cert, 1); err == nil {
		t.Error("clock mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), parts[:1], cert, 1); err == nil {
		t.Error("missing partition accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], parts[0]}, cert, 1); err == nil {
		t.Error("duplicate partition accepted")
	}
	ghost := loopPartition(t, "ghost", 10, LowCriticality)
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], ghost}, cert, 1); err == nil {
		t.Error("unknown partition standing in for a certified task accepted")
	}
	wrongPeriod := randomizedPair(t)
	wrongPeriod[1].PeriodMillis = 500
	if _, err := NewRandomizedExecutive(DefaultConfig(), wrongPeriod, cert, 1); err == nil {
		t.Error("period mismatch accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], {Name: "processing"}}, cert, 1); err == nil {
		t.Error("runnerless partition accepted")
	}
	if _, err := NewRandomizedExecutive(DefaultConfig(), []*Partition{parts[0], nil}, cert, 1); err == nil {
		t.Error("nil partition accepted")
	}
}

func TestCriticalityString(t *testing.T) {
	if HighCriticality.String() != "high" || LowCriticality.String() != "low" {
		t.Error("criticality strings")
	}
}
