// Package rtos models the hypervisor configuration of the paper's setup
// (§IV): PikeOS Native hosting two partitions — the high-criticality
// control task invoked every second and the low-criticality image
// processing task invoked every 100 ms — with spatial and temporal
// isolation, caches flushed automatically at each partition start,
// preemption disabled during partition execution, and partition reboot
// between measurement runs so that every execution starts from a fresh
// (and, under DSR, freshly randomised) memory layout.
//
// The executive is time-partitioned: a major frame is divided into
// windows, each window owns one partition activation, and a partition
// that overruns its window is cut off (temporal isolation) and flagged —
// the mixed-criticality concern that motivates the case study. Its
// schedule is drawn per frame from a schedfeas certificate; the
// deterministic policy schedfeas.Policy{} is the fixed cyclic schedule.
package rtos

import (
	"fmt"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/campaign"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/telemetry"
)

// Criticality is the design-assurance level of a partition.
type Criticality int

const (
	// LowCriticality marks the image-processing partition.
	LowCriticality Criticality = iota
	// HighCriticality marks the control partition.
	HighCriticality
)

func (c Criticality) String() string {
	if c == HighCriticality {
		return "high"
	}
	return "low"
}

// Runner abstracts the software hosted in a partition (a workload
// host). Activate prepares a fresh run (the partition reboot); Execute
// performs one run under a cycle budget, reporting whether the program
// completed within it.
type Runner interface {
	Activate(activation uint64) error
	Execute(budget mem.Cycles) (platform.RunResult, bool, error)
}

// Partition is one hosted application.
type Partition struct {
	Name        string
	Criticality Criticality
	Runner      Runner
	// PeriodMillis is the activation period (control: 1000, processing: 100).
	PeriodMillis int
}

// Config describes the executive.
type Config struct {
	MajorFrameMillis int
	// CyclesPerMilli converts wall-clock windows to core cycles
	// (an 80 MHz LEON3 gives 80_000 cycles per millisecond).
	CyclesPerMilli mem.Cycles
}

// DefaultConfig is the case study's frame: 1 s major frame on an 80 MHz
// core.
func DefaultConfig() Config {
	return Config{MajorFrameMillis: 1000, CyclesPerMilli: 80_000}
}

// Activation records one partition execution.
type Activation struct {
	Partition   string
	Criticality Criticality
	MajorFrame  int
	Window      int
	Activation  uint64
	// OffsetMillis is the window's start offset within its major frame —
	// the nominal phase under schedfeas.Policy{}, drawn per frame under
	// a randomizing policy (the arrival observable a timing-inference
	// adversary sees).
	OffsetMillis int
	Cycles       mem.Cycles
	Budget       mem.Cycles
	// Completed is false when the window expired first (temporal
	// isolation cut the partition off).
	Completed bool
	Result    platform.RunResult
}

// Overrun reports whether the partition consumed its entire window
// without completing.
func (a Activation) Overrun() bool { return !a.Completed }

// ByPartition filters activation records.
func ByPartition(acts []Activation, name string) []Activation {
	var out []Activation
	for _, a := range acts {
		if a.Partition == name {
			out = append(out, a)
		}
	}
	return out
}

// RandomizedExecutive is the partitioned executive: every major frame
// it draws that frame's schedule from the certified (spec, policy) pair
// and runs it window by window. Under schedfeas.Policy{} every draw is
// the nominal schedule, so the executive is the paper's fixed cyclic
// executive; a randomizing policy adds the second randomisation axis
// next to DSR's memory-layout randomisation (TaskShuffler++-style
// schedule randomisation on the same time-partitioned executive).
//
// Construction is gated on a schedfeas.Certificate: the executive will
// not exist unless the static analyzer has proven every schedule the
// policy can draw feasible. At runtime it still re-checks each drawn
// frame against the certificate's support before executing it — the
// belt-and-braces membership guard the CI soundness gate exercises at
// scale.
//
// Determinism contract: the schedule of frame f is a pure function of
// (seedBase, f) — the per-frame draw stream is campaign.NewSchedule
// (seedBase).Seed(f) fed to the MWC generator, and activation numbers
// are computed from the frame index rather than a running counter. Any
// worker can therefore execute any frame in any order and produce
// byte-identical records, which is what lets the campaign engine shard
// E9 runs across workers.
type RandomizedExecutive struct {
	cfg    Config
	cert   *schedfeas.Certificate
	parts  map[string]*Partition
	seeds  campaign.Schedule
	events *telemetry.EventLog
}

// NewRandomizedExecutive builds a randomized executive over the given
// partitions. cert must be a certificate issued by schedfeas.Analyze
// (non-nil only on feasible reports); the partitions must match the
// certified task set one to one by name, with matching periods where
// the partition declares one, and the config must match the certified
// frame and clock.
func NewRandomizedExecutive(cfg Config, parts []*Partition, cert *schedfeas.Certificate, seedBase uint64) (*RandomizedExecutive, error) {
	if cfg.MajorFrameMillis <= 0 || cfg.CyclesPerMilli == 0 {
		return nil, fmt.Errorf("rtos: bad config %+v", cfg)
	}
	if cert == nil {
		return nil, fmt.Errorf("rtos: randomized executive requires a schedfeas certificate")
	}
	if cert.Spec.FrameMillis != cfg.MajorFrameMillis {
		return nil, fmt.Errorf("rtos: certificate frame %dms != config frame %dms",
			cert.Spec.FrameMillis, cfg.MajorFrameMillis)
	}
	if cert.Spec.CyclesPerMilli != cfg.CyclesPerMilli {
		return nil, fmt.Errorf("rtos: certificate clock %d != config clock %d",
			cert.Spec.CyclesPerMilli, cfg.CyclesPerMilli)
	}
	byName := map[string]*Partition{}
	for _, p := range parts {
		if p == nil || p.Runner == nil {
			return nil, fmt.Errorf("rtos: partition without runner")
		}
		if _, ok := byName[p.Name]; ok {
			return nil, fmt.Errorf("rtos: two partitions share the name %q", p.Name)
		}
		byName[p.Name] = p
	}
	if len(byName) != len(cert.Spec.Tasks) {
		return nil, fmt.Errorf("rtos: %d partitions for %d certified tasks",
			len(byName), len(cert.Spec.Tasks))
	}
	for _, t := range cert.Spec.Tasks {
		p, ok := byName[t.Name]
		if !ok {
			return nil, fmt.Errorf("rtos: certified task %q has no partition", t.Name)
		}
		if p.PeriodMillis != 0 && p.PeriodMillis != t.PeriodMillis {
			return nil, fmt.Errorf("rtos: partition %q period %dms != certified period %dms",
				p.Name, p.PeriodMillis, t.PeriodMillis)
		}
	}
	return &RandomizedExecutive{
		cfg:   cfg,
		cert:  cert,
		parts: byName,
		seeds: campaign.NewSchedule(seedBase),
	}, nil
}

// SetEventLog installs (or clears, with nil) the structured event log
// the executive emits partition-window events into.
func (e *RandomizedExecutive) SetEventLog(l *telemetry.EventLog) { e.events = l }

// Certificate returns the certificate the executive was constructed
// with.
func (e *RandomizedExecutive) Certificate() *schedfeas.Certificate { return e.cert }

// DrawFrame returns frame f's schedule without executing it — the same
// schedule RunFrame would execute, exposed for membership audits.
func (e *RandomizedExecutive) DrawFrame(frame int) (*schedfeas.FrameSchedule, error) {
	src := prng.NewMWC(e.seeds.Seed(frame))
	return schedfeas.Draw(&e.cert.Spec, e.cert.Policy, src)
}

// RunFrame draws and executes major frame f, returning its activation
// records in schedule order. It is a pure function of the frame index
// (given the runners' own determinism): activation numbers are
// frame*activationsPerFrame + withinFrameIndex, not a running counter.
func (e *RandomizedExecutive) RunFrame(frame int) ([]Activation, error) {
	fs, err := e.DrawFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("rtos: frame %d: %w", frame, err)
	}
	if err := e.cert.Contains(fs); err != nil {
		return nil, fmt.Errorf("rtos: frame %d drew an uncertified schedule: %w", frame, err)
	}
	var out []Activation
	for wi, w := range fs.Windows {
		p := e.parts[w.Task]
		var period int
		for _, t := range e.cert.Spec.Tasks {
			if t.Name == w.Task {
				period = t.PeriodMillis
			}
		}
		actsPerFrame := e.cfg.MajorFrameMillis / period
		act := uint64(frame)*uint64(actsPerFrame) + uint64(w.Activation)
		if err := p.Runner.Activate(act); err != nil {
			return out, fmt.Errorf("rtos: activate %s: %w", p.Name, err)
		}
		budget := mem.Cycles(w.BudgetMillis) * e.cfg.CyclesPerMilli
		res, done, err := p.Runner.Execute(budget)
		if err != nil {
			return out, fmt.Errorf("rtos: execute %s: %w", p.Name, err)
		}
		start := (mem.Cycles(frame)*mem.Cycles(e.cfg.MajorFrameMillis) +
			mem.Cycles(w.StartMillis)) * e.cfg.CyclesPerMilli
		used := res.Cycles
		if used > budget {
			used = budget
		}
		e.events.EmitAt(start, p.Name, "rtos.window", telemetry.PhaseBegin,
			telemetry.Int("frame", frame),
			telemetry.Int("window", wi),
			telemetry.Uint64("activation", act),
			telemetry.Cycles("budget", budget),
			telemetry.Cycles("cycles", res.Cycles),
			telemetry.String("criticality", p.Criticality.String()))
		if !done {
			e.events.EmitAt(start+used, p.Name, "rtos.overrun", telemetry.PhaseInstant,
				telemetry.Int("frame", frame),
				telemetry.Uint64("activation", act))
		}
		e.events.EmitAt(start+used, p.Name, "rtos.window", telemetry.PhaseEnd)
		out = append(out, Activation{
			Partition:    p.Name,
			Criticality:  p.Criticality,
			MajorFrame:   frame,
			Window:       wi,
			Activation:   act,
			OffsetMillis: w.StartMillis,
			Cycles:       res.Cycles,
			Budget:       budget,
			Completed:    done,
			Result:       res,
		})
	}
	return out, nil
}

// RunMajorFrames executes frames 0..n-1 and returns every activation
// record in schedule order.
func (e *RandomizedExecutive) RunMajorFrames(n int) ([]Activation, error) {
	var out []Activation
	for frame := 0; frame < n; frame++ {
		acts, err := e.RunFrame(frame)
		out = append(out, acts...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
