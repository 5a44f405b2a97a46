// Spacestudy walks through the paper's full case study (§IV-VI): the
// mixed-criticality active-optics software hosted in two PikeOS-like
// partitions, the measurement protocol, and the timing analysis of the
// high-criticality control task.
package main

import (
	"fmt"
	"log"
	"math"

	"dsr"
	"dsr/internal/analysis/schedfeas"
	"dsr/internal/core"
	"dsr/internal/experiments"
	"dsr/internal/platform"
	"dsr/internal/rtos"
	"dsr/internal/sched"
	"dsr/internal/spaceapp"
	"dsr/internal/workload"
)

func main() {
	// --- Part 1: the hosted system under the partition executive -----
	fmt.Println("== Part 1: two partitions under the cyclic executive ==")

	// Control partition (high criticality, 1 s period) under DSR: every
	// activation reboots with a fresh layout and a fresh input vector.
	control := workload.Workload{
		Build:     spaceapp.BuildControl,
		Platform:  platform.ProximaLEON3(),
		Layout:    workload.DSR,
		Seed:      func(i int) uint64 { return 1 + uint64(i) },
		Input:     workload.ControlInput,
		InputBase: 1,
	}
	// Processing partition (low criticality, 100 ms period): a fixed
	// image forked per activation, with a fresh scene each time.
	processing := workload.Workload{
		Build:       spaceapp.BuildProcessing,
		Platform:    platform.ProximaLEON3(),
		Input:       workload.SceneInput,
		InputBase:   1,
		LitFraction: spaceapp.LitFraction,
	}
	ctrlHost, err := control.Host(0)
	check(err)
	procHost, err := processing.Host(0)
	check(err)

	// The case-study frame certified under the deterministic policy:
	// every frame draws the nominal schedule, i.e. the cyclic executive.
	static := schedfeas.Analyze(experiments.CaseStudySchedSpec(), experiments.CaseStudySchedPolicy(false), schedfeas.Config{})
	if static.Cert == nil {
		log.Fatalf("case-study frame not certifiable: %v", static.Violations)
	}
	executive, err := rtos.NewRandomizedExecutive(rtos.DefaultConfig(), []*rtos.Partition{
		{Name: "control", Criticality: rtos.HighCriticality, Runner: ctrlHost, PeriodMillis: 1000},
		{Name: "processing", Criticality: rtos.LowCriticality, Runner: procHost, PeriodMillis: 100},
	}, static.Cert, 1)
	check(err)

	// Each host checks every completed window against the golden model
	// and fails the frame on a mismatch. An overrun would mean a
	// partition exceeded the WCET its window was certified for.
	acts, err := executive.RunMajorFrames(2)
	check(err)
	var procMax float64
	for _, a := range acts {
		if a.Overrun() {
			log.Fatalf("frame %d: %s overran its %d-cycle window", a.MajorFrame, a.Partition, a.Budget)
		}
		fmt.Printf("  frame %d  %3dms  %-11s (%s crit)  %8d cycles / budget %8d  completed, golden ok\n",
			a.MajorFrame, a.OffsetMillis, a.Partition, a.Criticality, a.Cycles, a.Budget)
		if a.Partition == "processing" {
			procMax = math.Max(procMax, float64(a.Cycles))
		}
	}
	ref := spaceapp.ProcessingReference(spaceapp.GenScene(processing.InputBase, spaceapp.LitFraction))
	fmt.Printf("  processing activation 0: %d/%d lenses lit, RMS wavefront error %.4f px\n\n",
		ref.Lit, spaceapp.NumLenses, math.Float32frombits(ref.RMSBits))

	// --- Part 2: the control task's timing analysis ------------------
	fmt.Println("== Part 2: MBPTA of the control task (the unit of analysis) ==")
	const runs = 1000
	ctrlProg, err := spaceapp.BuildControl()
	check(err)
	ctrlPlat := platform.New(platform.ProximaLEON3())
	rt, err := core.NewRuntime(ctrlProg, ctrlPlat, core.Options{})
	check(err)
	fmt.Printf("  collecting %d DSR measurement runs (reboot + fresh input each)...\n", runs)
	var times []float64
	for i := 0; i < runs; i++ {
		_, err := rt.Reboot(uint64(i) + 1)
		check(err)
		in := spaceapp.GenControlInput(9000 + uint64(i))
		check(spaceapp.ApplyControlInput(ctrlPlat.Mem, rt.Image(), in))
		res, err := rt.Run()
		check(err)
		if res.ExitValue != spaceapp.ControlReference(in) {
			log.Fatalf("run %d: functional mismatch under DSR", i)
		}
		times = append(times, float64(res.Cycles))
	}
	rep, err := dsr.Analyse(times)
	check(err)
	fmt.Printf("  i.i.d.: Ljung-Box p=%.3f, KS p=%.3f → %v\n",
		rep.IID.LjungBox.PValue, rep.IID.KS.PValue, rep.IID.Pass())
	fmt.Printf("  MOET=%.0f  pWCET@1e-15=%.0f (+%.2f%%)\n\n",
		rep.MOET, rep.PWCET, (rep.PWCET/rep.MOET-1)*100)
	fmt.Print(dsr.RenderCurve(rep, times))

	// --- Part 3: the other half of timing V&V — scheduling analysis ---
	fmt.Println("\n== Part 3: scheduling analysis with the derived bounds ==")
	procWCET := procMax * 1.2 // processing: MOET of Part 1's windows + 20% (low crit)
	tasks := []sched.Task{
		{Name: "control (pWCET)", PeriodMillis: 1000, WCETCycles: rep.PWCET, WindowBudgetMillis: 30},
		{Name: "processing (MOET+20%)", PeriodMillis: 100, WCETCycles: procWCET, WindowBudgetMillis: 60},
	}
	srep, err := sched.Check(tasks, rtos.DefaultConfig().CyclesPerMilli)
	check(err)
	for _, r := range srep.Results {
		fmt.Printf("  %-24s bound=%-9.0f window=%-9.0f slack=%-9.0f fits=%v\n",
			r.Task.Name, r.Task.WCETCycles, r.BudgetCycles, r.SlackCycles, r.Fits)
	}
	hyper, packs, err := sched.HyperperiodFit(tasks)
	check(err)
	fmt.Printf("  hyperperiod %dms, windows pack=%v, utilisation=%.2f%%, schedulable=%v\n",
		hyper, packs, srep.TotalUtilisation*100, srep.Schedulable)
	fmt.Printf("  min window for the control task at its pWCET: %dms\n",
		sched.MinWindow(rep.PWCET, rtos.DefaultConfig().CyclesPerMilli))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
