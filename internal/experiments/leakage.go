package experiments

import (
	"fmt"
	"strings"

	"dsr/internal/analysis/leak"
	"dsr/internal/analysis/wcet"
	"dsr/internal/attack"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/mem"
	"dsr/internal/spaceapp"
	"dsr/internal/workload"
)

// E8 — side-channel leakage vs timing analysability. One campaign per
// configuration (det, dsr-eager, dsr-lazy) runs the control task under
// the attack observers (internal/attack), measures how many distinct
// observations each attacker actually collects, and compares against
// the static channel-capacity bounds from internal/analysis/leak. The
// experiment ends in two verdicts: timing analysability (the pWCET and
// every observed time sit below the static WCET bound) and side-channel
// resistance (every measured leakage sits below its static bound, the
// bounds form the det ≥ lazy ≥ eager chain, and DSR shows a strictly
// positive access-channel benefit).

// leakLayouts is the layout-reuse factor of a leakage campaign: run i
// reboots with layout seed i mod leakLayouts, so each layout is
// observed under Runs/leakLayouts different inputs. Reuse matters for
// the trace-channel gate — the static trace bound counts hit/miss
// outcome sequences, which under DSR are compared per layout (the
// recorded set indices are placement noise that changes across
// layouts, not secret information).
const leakLayouts = 8

// LeakSeries is one leakage campaign: per-run attack observations under
// one configuration, plus the static report they are gated against.
type LeakSeries struct {
	Name   string
	Mode   wcet.Mode
	Static *leak.Report
	// Seeds[i] is run i's layout seed (0 for the deterministic build).
	Seeds []uint64
	// Obs[i] is run i's attack observation.
	Obs []attack.Observation
	// Cycles[i] is run i's unit-of-analysis duration (pWCET input).
	Cycles []float64
}

// MeasuredAccessBits is the prime+probe attacker's measured leakage:
// log2 of the number of distinct occupancy observations over the whole
// campaign. Deterministic builds give the attacker set attribution
// (vector keys); randomised builds do not (multiset keys). The static
// AccessBits bound covers the joint (layout, input) variation, so the
// distinct count is taken globally.
func (s *LeakSeries) MeasuredAccessBits() float64 {
	keys := map[string]bool{}
	attributable := s.Mode == wcet.ModeDet
	for i := range s.Obs {
		keys[s.Obs[i].PrimeProbeKey(attributable)] = true
	}
	return attack.DistinctBits(len(keys))
}

// MeasuredTraceBits is the evict+time attacker's measured leakage about
// the input: the maximum over layouts of log2(#distinct event-sequence
// observations within that layout). Grouping by layout is what makes
// the comparison against the static trace bound meaningful: the bound
// counts path and hit/miss outcome alternatives, while the raw trace
// also varies with the placement itself across reboots.
func (s *LeakSeries) MeasuredTraceBits() float64 {
	groups := map[uint64]map[string]bool{}
	for i := range s.Obs {
		g := groups[s.Seeds[i]]
		if g == nil {
			g = map[string]bool{}
			groups[s.Seeds[i]] = g
		}
		g[s.Obs[i].TraceKey()] = true
	}
	var bits float64
	for _, g := range groups {
		if b := attack.DistinctBits(len(g)); b > bits {
			bits = b
		}
	}
	return bits
}

// MeasuredTimingBits is the whole-run timing attacker's measured
// leakage: log2(#distinct cycle counts) over the whole campaign. Cycles
// are a function of the path and the per-access outcomes, so the static
// trace bound covers this attacker in every mode, layout variation
// included.
func (s *LeakSeries) MeasuredTimingBits() float64 {
	keys := map[string]bool{}
	for i := range s.Obs {
		keys[s.Obs[i].CyclesKey()] = true
	}
	return attack.DistinctBits(len(keys))
}

// MOET is the campaign's maximum observed (unit-of-analysis) time.
func (s *LeakSeries) MOET() float64 {
	var m float64
	for _, c := range s.Cycles {
		if c > m {
			m = c
		}
	}
	return m
}

// leakShard is one leakage run's outcome before the canonical merge.
type leakShard struct {
	seed   uint64
	obs    attack.Observation
	cycles float64
}

// RunLeak executes one leakage campaign in the given analysis mode.
// Like every campaign, the output is byte-identical at any worker
// count: each worker owns a private platform with its own probe, and
// every run's observation is a pure function of (layout seed, input).
// Config.Interrupt and Config.Tracer apply as in every series.
func RunLeak(cfg Config, mode wcet.Mode) (*LeakSeries, error) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		return nil, err
	}
	static, err := leak.AnalyzeMode(p, mode, leak.Config{})
	if err != nil {
		return nil, err
	}
	if !static.Bounded {
		return nil, fmt.Errorf("experiments: leakage analysis refused the control app in mode %s", mode)
	}

	name := map[wcet.Mode]string{
		wcet.ModeDet:      "No Rand",
		wcet.ModeDSREager: "Sw Rand",
		wcet.ModeDSRLazy:  "Sw Rand (lazy)",
	}[mode]
	s := &LeakSeries{
		Name:   name,
		Mode:   mode,
		Static: static,
		Seeds:  make([]uint64, cfg.Runs),
		Obs:    make([]attack.Observation, cfg.Runs),
		Cycles: make([]float64, cfg.Runs),
	}
	wl := controlTask(workload.FixedImage)
	wl.InputBase = cfg.InputSeedBase
	wl.Tracer = cfg.Tracer
	if mode != wcet.ModeDet {
		sched := cfg.schedule()
		wl.Layout = workload.DSR
		// Run i reboots into layout i mod leakLayouts.
		wl.Seed = func(i int) uint64 { return sched.Seed(i % leakLayouts) }
		if mode == wcet.ModeDSRLazy {
			wl.Options = func() core.Options { return core.Options{Mode: core.Lazy} }
		}
	}
	newWorker := func(w int) (campaign.RunFunc[leakShard], error) {
		h, err := wl.Host(w)
		if err != nil {
			return nil, err
		}
		probe := attack.Attach(h.Platform())
		return func(i int) (leakShard, error) {
			if err := h.Activate(uint64(i)); err != nil {
				return leakShard{}, err
			}
			// Eager relocation ran inside the reboot, before the observed
			// window; Reset drops its events. Lazy relocates inside the
			// run and is charged to the trace channel by the analyzer.
			probe.Reset()
			res, err := h.Run()
			if err != nil {
				return leakShard{}, err
			}
			return leakShard{seed: h.Seed(), obs: probe.Snapshot(res.Cycles), cycles: uoaCycles(res)}, nil
		}, nil
	}

	err = campaign.Execute(cfg.engine(), newWorker, func(i int, sh leakShard) error {
		s.Seeds[i] = sh.seed
		s.Obs[i] = sh.obs
		s.Cycles[i] = sh.cycles
		if cfg.Progress != nil {
			cfg.Progress(s.Name, i+1, cfg.Runs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// E8Row is one configuration's line in the E8 table.
type E8Row struct {
	Config string
	Mode   wcet.Mode
	// Access-based channel (prime+probe), measured vs static bound.
	MeasuredAccessBits float64
	StaticAccessBits   float64
	// Trace-based channel (evict+time), measured vs static bound, plus
	// the timing attacker (also bounded by the static trace bound).
	MeasuredTraceBits  float64
	MeasuredTimingBits float64
	StaticTraceBits    float64
	// LayoutEntropyBits is what the attacker must still learn (DSR only).
	LayoutEntropyBits float64
	// Timing side: campaign MOET vs the static WCET bound.
	MOET       float64
	StaticWCET mem.Cycles
}

// E8Report is the experiment outcome: the table and the two verdicts.
type E8Report struct {
	Rows []E8Row
	// PWCET is the MBPTA estimate on the dsr-eager campaign (0 when the
	// campaign is too short for a tail fit).
	PWCET float64
	// TimingAnalysable: every observation and the pWCET estimate sit
	// below the corresponding static WCET bound.
	TimingAnalysable bool
	// SideChannelResistant: every measured leakage sits below its static
	// bound, the access bounds form the eager <= lazy <= det chain, and
	// det strictly exceeds eager (the randomisation benefit).
	SideChannelResistant bool
	// Verdict details for the report.
	TimingDetail, LeakDetail string
}

const leakEps = 1e-9

// RunE8 runs the three leakage campaigns and renders the verdicts.
func RunE8(cfg Config) (*E8Report, error) {
	modes := []wcet.Mode{wcet.ModeDet, wcet.ModeDSREager, wcet.ModeDSRLazy}
	rep := &E8Report{}
	series := make([]*LeakSeries, 0, len(modes))
	for _, mode := range modes {
		s, err := RunLeak(cfg, mode)
		if err != nil {
			return nil, err
		}
		bound, err := StaticWCET(mode)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
		rep.Rows = append(rep.Rows, E8Row{
			Config:             s.Name,
			Mode:               mode,
			MeasuredAccessBits: s.MeasuredAccessBits(),
			StaticAccessBits:   s.Static.AccessBits,
			MeasuredTraceBits:  s.MeasuredTraceBits(),
			MeasuredTimingBits: s.MeasuredTimingBits(),
			StaticTraceBits:    s.Static.TraceBits,
			LayoutEntropyBits:  s.Static.LayoutEntropyBits,
			MOET:               s.MOET(),
			StaticWCET:         bound,
		})
	}

	// Timing analysability: observed times below the static bounds, and
	// the EVT extrapolation (when the campaign is long enough to fit a
	// tail) below the dsr-eager bound.
	timingOK := true
	var timing []string
	for _, r := range rep.Rows {
		if r.MOET > float64(r.StaticWCET) {
			timingOK = false
			timing = append(timing, fmt.Sprintf("%s: MOET %.0f > static bound %d", r.Config, r.MOET, r.StaticWCET))
		}
	}
	if eager := series[1]; len(eager.Cycles) >= 100 {
		if m, err := Figure3(&Series{Name: eager.Name, Cycles: eager.Cycles}, cfg.MBPTA); err == nil {
			rep.PWCET = m.PWCET
			if m.PWCET > float64(rep.Rows[1].StaticWCET) {
				timingOK = false
				timing = append(timing, fmt.Sprintf("pWCET %.0f > static bound %d", m.PWCET, rep.Rows[1].StaticWCET))
			}
		}
	}
	rep.TimingAnalysable = timingOK
	rep.TimingDetail = "every observation and the pWCET estimate sit below the static WCET bounds"
	if !timingOK {
		rep.TimingDetail = strings.Join(timing, "; ")
	}

	// Side-channel resistance: soundness per configuration, then the
	// monotonicity chain and the strict det > eager benefit.
	leakOK := true
	var leaks []string
	for _, r := range rep.Rows {
		if r.MeasuredAccessBits > r.StaticAccessBits+leakEps {
			leakOK = false
			leaks = append(leaks, fmt.Sprintf("%s: measured access %.2f > static %.2f", r.Config, r.MeasuredAccessBits, r.StaticAccessBits))
		}
		if r.MeasuredTraceBits > r.StaticTraceBits+leakEps {
			leakOK = false
			leaks = append(leaks, fmt.Sprintf("%s: measured trace %.2f > static %.2f", r.Config, r.MeasuredTraceBits, r.StaticTraceBits))
		}
		if r.MeasuredTimingBits > r.StaticTraceBits+leakEps {
			leakOK = false
			leaks = append(leaks, fmt.Sprintf("%s: measured timing %.2f > static trace bound %.2f", r.Config, r.MeasuredTimingBits, r.StaticTraceBits))
		}
	}
	det, eager, lazy := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if !(eager.StaticAccessBits <= lazy.StaticAccessBits+leakEps && lazy.StaticAccessBits <= det.StaticAccessBits+leakEps) {
		leakOK = false
		leaks = append(leaks, fmt.Sprintf("chain violated: eager %.2f, lazy %.2f, det %.2f",
			eager.StaticAccessBits, lazy.StaticAccessBits, det.StaticAccessBits))
	}
	if det.StaticAccessBits <= eager.StaticAccessBits+leakEps {
		leakOK = false
		leaks = append(leaks, "no access-channel benefit from randomisation")
	}
	rep.SideChannelResistant = leakOK
	rep.LeakDetail = fmt.Sprintf("access-channel bound drops %.1f -> %.1f bits under DSR (%.1f bits of layout entropy to guess)",
		det.StaticAccessBits, eager.StaticAccessBits, eager.LayoutEntropyBits)
	if !leakOK {
		rep.LeakDetail = strings.Join(leaks, "; ")
	}
	return rep, nil
}

// FormatE8 renders the E8 table and verdicts as text.
func FormatE8(r *E8Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8: CACHE SIDE-CHANNEL LEAKAGE VS TIMING ANALYSABILITY\n")
	fmt.Fprintf(&b, "%-16s %22s %22s %14s %12s %22s\n",
		"", "access bits (max/cap)", "trace bits (max/cap)", "timing bits", "layout bits", "MOET / static WCET")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %11.2f / %-8.2f %11.2f / %-8.2f %14.2f %12.1f %10.0f / %-10d\n",
			row.Config,
			row.MeasuredAccessBits, row.StaticAccessBits,
			row.MeasuredTraceBits, row.StaticTraceBits,
			row.MeasuredTimingBits, row.LayoutEntropyBits,
			row.MOET, row.StaticWCET)
	}
	if r.PWCET > 0 {
		fmt.Fprintf(&b, "pWCET @ target (dsr-eager): %.0f cycles\n", r.PWCET)
	}
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		return "FAIL"
	}
	fmt.Fprintf(&b, "verdict timing analysability:    %s — %s\n", verdict(r.TimingAnalysable), r.TimingDetail)
	fmt.Fprintf(&b, "verdict side-channel resistance: %s — %s\n", verdict(r.SideChannelResistant), r.LeakDetail)
	return b.String()
}
