// Package sched provides the scheduling-analysis half of timing V&V:
// §I of the paper frames the process as deriving "a timing bound for
// each software unit together with a scheduling of those software units
// so that system's timing requirements are fulfilled". Given per-task
// WCET bounds — deterministic (MOET + margin) or probabilistic (pWCET
// at the criticality-appropriate exceedance) — and the cyclic partition
// schedule, this package verifies that every activation fits its window
// and reports slack and utilisation, so the two bounding approaches can
// be compared end to end.
package sched

import (
	"fmt"
	"sort"

	"dsr/internal/mem"
)

// Task is one schedulable unit with its derived WCET bound.
type Task struct {
	Name string
	// PeriodMillis is the activation period.
	PeriodMillis int
	// WCETCycles is the bound used for analysis: a pWCET quantile for
	// MBPTA, or MOET × (1+margin) for current practice.
	WCETCycles float64
	// WindowBudgetMillis is the partition window reserved per activation.
	WindowBudgetMillis int
	// StackBoundBytes is the static worst-case stack excursion of the
	// task (analysis.StackBound.MaxStackBytes — under DSR, computed with
	// the runtime's StackOffsetBound so random offsets are covered).
	// Zero means "not analysed"; the stack check is skipped.
	StackBoundBytes int
	// StackBudgetBytes is the partition stack allocation the integrator
	// reserved for the task. Zero disables the check.
	StackBudgetBytes int
}

// Result is the verdict for one task.
type Result struct {
	Task Task
	// BudgetCycles is the window budget in cycles.
	BudgetCycles float64
	// SlackCycles is budget - WCET (negative when the task does not fit).
	SlackCycles float64
	// Fits reports WCET <= budget.
	Fits bool
	// Utilisation is WCET / period, the long-run core share.
	Utilisation float64
	// StackSlackBytes is StackBudgetBytes - StackBoundBytes when both
	// are set (negative when the static bound exceeds the allocation).
	StackSlackBytes int
	// StackFits reports whether the static stack bound fits the budget
	// (vacuously true when either side is zero/unchecked).
	StackFits bool
}

// Report is the system-level outcome.
type Report struct {
	Results []Result
	// TotalUtilisation sums the per-task utilisations.
	TotalUtilisation float64
	// Schedulable is true when every task fits its window and the total
	// utilisation is below one.
	Schedulable bool
}

// Check analyses the task set on a core running cyclesPerMilli cycles
// per millisecond.
func Check(tasks []Task, cyclesPerMilli mem.Cycles) (*Report, error) {
	if cyclesPerMilli == 0 {
		return nil, fmt.Errorf("sched: zero clock rate")
	}
	rep := &Report{Schedulable: true}
	for _, t := range tasks {
		if t.PeriodMillis <= 0 {
			return nil, fmt.Errorf("sched: task %q has non-positive period", t.Name)
		}
		if t.WindowBudgetMillis <= 0 {
			return nil, fmt.Errorf("sched: task %q has non-positive window", t.Name)
		}
		if t.WindowBudgetMillis > t.PeriodMillis {
			return nil, fmt.Errorf("sched: task %q window %dms exceeds period %dms",
				t.Name, t.WindowBudgetMillis, t.PeriodMillis)
		}
		if t.WCETCycles <= 0 {
			return nil, fmt.Errorf("sched: task %q has non-positive WCET bound", t.Name)
		}
		if t.StackBoundBytes < 0 || t.StackBudgetBytes < 0 {
			return nil, fmt.Errorf("sched: task %q has a negative stack bound or budget", t.Name)
		}
		budget := float64(t.WindowBudgetMillis) * float64(cyclesPerMilli)
		period := float64(t.PeriodMillis) * float64(cyclesPerMilli)
		r := Result{
			Task:         t,
			BudgetCycles: budget,
			SlackCycles:  budget - t.WCETCycles,
			Fits:         t.WCETCycles <= budget,
			Utilisation:  t.WCETCycles / period,
			StackFits:    true,
		}
		if t.StackBudgetBytes > 0 && t.StackBoundBytes > 0 {
			r.StackSlackBytes = t.StackBudgetBytes - t.StackBoundBytes
			r.StackFits = t.StackBoundBytes <= t.StackBudgetBytes
		}
		rep.Results = append(rep.Results, r)
		rep.TotalUtilisation += r.Utilisation
		if !r.Fits || !r.StackFits {
			rep.Schedulable = false
		}
	}
	if rep.TotalUtilisation > 1 {
		rep.Schedulable = false
	}
	return rep, nil
}

// MinWindow returns the smallest integer window budget (in ms) that fits
// the bound — the dimensioning question a system integrator asks, and
// where a tighter pWCET directly buys schedulable capacity.
func MinWindow(wcetCycles float64, cyclesPerMilli mem.Cycles) int {
	if wcetCycles <= 0 {
		return 0
	}
	cpm := float64(cyclesPerMilli)
	w := int(wcetCycles / cpm)
	if float64(w)*cpm < wcetCycles {
		w++
	}
	return w
}

// FitMode selects what kind of cyclic-executive placement Fit
// constructs.
type FitMode int

const (
	// FixedPhase requires one offset per task: activation k of a task
	// with period T starts at k*T + offset for a single offset chosen
	// once. This is the only mode whose "packs" verdict certifies a
	// realizable fixed-phase cyclic executive (the nominal schedule of
	// a schedfeas spec, run by the rtos executive under Policy{}),
	// and its offsets are the det baseline a schedule randomizer
	// perturbs.
	FixedPhase FitMode = iota
	// Jittered allows each activation its own offset within its period.
	// It packs strictly more task sets than FixedPhase, but the
	// resulting placement is not a fixed-phase executive: a task may
	// run at different offsets in different periods (release jitter by
	// construction), so "packs" here answers a weaker question.
	Jittered
)

func (m FitMode) String() string {
	if m == FixedPhase {
		return "fixed-phase"
	}
	return "jittered"
}

// Placement is one task's chosen offset(s) in a FitPlan.
type Placement struct {
	Task string
	// OffsetMillis is the fixed phase in FixedPhase mode. In Jittered
	// mode it is the offset of the task's first activation; later
	// activations may differ (see Offsets).
	OffsetMillis int
	// Offsets lists the per-activation offsets over the hyperperiod
	// (all equal in FixedPhase mode).
	Offsets []int
}

// FitPlan is the outcome of a constructive hyperperiod packing.
type FitPlan struct {
	HyperMillis int
	Mode        FitMode
	Packs       bool
	// Placements holds the chosen offsets, in rate-monotonic placement
	// order, for the tasks placed before packing failed (all tasks when
	// Packs).
	Placements []Placement
	// Failed names the first task that could not be placed ("" when
	// Packs).
	Failed string
}

// Offset returns the fixed-phase offset chosen for the named task and
// whether the plan placed it.
func (p *FitPlan) Offset(task string) (int, bool) {
	for _, pl := range p.Placements {
		if pl.Task == task {
			return pl.OffsetMillis, true
		}
	}
	return 0, false
}

// Fit lays the tasks into one hyperperiod (lcm of periods) first-fit in
// rate-monotonic order and reports whether the windows pack, along with
// the chosen offsets. FixedPhase demands one offset per task (a
// realizable cyclic-executive window table); Jittered reproduces the
// historical HyperperiodFit behaviour where every activation may land
// at a different offset.
func Fit(tasks []Task, mode FitMode) (*FitPlan, error) {
	plan := &FitPlan{Mode: mode, Packs: true}
	if len(tasks) == 0 {
		return plan, nil
	}
	hyper := 1
	for _, t := range tasks {
		if t.PeriodMillis <= 0 {
			return nil, fmt.Errorf("sched: task %q has non-positive period", t.Name)
		}
		if t.WindowBudgetMillis <= 0 || t.WindowBudgetMillis > t.PeriodMillis {
			return nil, fmt.Errorf("sched: task %q window %dms does not fit period %dms",
				t.Name, t.WindowBudgetMillis, t.PeriodMillis)
		}
		hyper = lcm(hyper, t.PeriodMillis)
		if hyper > 1<<20 {
			return nil, fmt.Errorf("sched: hyperperiod overflow")
		}
	}
	plan.HyperMillis = hyper
	// Busy map at millisecond granularity.
	busy := make([]bool, hyper)
	free := func(at, n int) bool {
		for m := 0; m < n; m++ {
			if busy[at+m] {
				return false
			}
		}
		return true
	}
	occupy := func(at, n int) {
		for m := 0; m < n; m++ {
			busy[at+m] = true
		}
	}
	order := append([]Task(nil), tasks...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].PeriodMillis < order[j].PeriodMillis })
	for _, t := range order {
		acts := hyper / t.PeriodMillis
		pl := Placement{Task: t.Name, Offsets: make([]int, 0, acts)}
		switch mode {
		case FixedPhase:
			// One offset must be free in every period simultaneously.
			chosen := -1
			for off := 0; off+t.WindowBudgetMillis <= t.PeriodMillis && chosen < 0; off++ {
				ok := true
				for start := 0; start < hyper; start += t.PeriodMillis {
					if !free(start+off, t.WindowBudgetMillis) {
						ok = false
						break
					}
				}
				if ok {
					chosen = off
				}
			}
			if chosen < 0 {
				plan.Packs = false
				plan.Failed = t.Name
				return plan, nil
			}
			for start := 0; start < hyper; start += t.PeriodMillis {
				occupy(start+chosen, t.WindowBudgetMillis)
				pl.Offsets = append(pl.Offsets, chosen)
			}
			pl.OffsetMillis = chosen
		case Jittered:
			for start := 0; start < hyper; start += t.PeriodMillis {
				placed := -1
				for off := 0; off+t.WindowBudgetMillis <= t.PeriodMillis && placed < 0; off++ {
					if free(start+off, t.WindowBudgetMillis) {
						placed = off
					}
				}
				if placed < 0 {
					plan.Packs = false
					plan.Failed = t.Name
					return plan, nil
				}
				occupy(start+placed, t.WindowBudgetMillis)
				pl.Offsets = append(pl.Offsets, placed)
			}
			pl.OffsetMillis = pl.Offsets[0]
		default:
			return nil, fmt.Errorf("sched: unknown fit mode %d", int(mode))
		}
		plan.Placements = append(plan.Placements, pl)
	}
	return plan, nil
}

// HyperperiodFit is the historical constructive feasibility check,
// kept as the explicit jittered mode: per-activation offsets are chosen
// independently, so "packs" does NOT certify a fixed-phase cyclic
// executive — use Fit(tasks, FixedPhase) for that.
func HyperperiodFit(tasks []Task) (hyperMillis int, packs bool, err error) {
	plan, err := Fit(tasks, Jittered)
	if err != nil {
		return 0, false, err
	}
	return plan.HyperMillis, plan.Packs, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
