// Package experiments is the campaign harness behind every table and
// figure of the paper's evaluation (§VI), shared by cmd/dsrsim and the
// repository benchmarks:
//
//	E1 / Table I  — performance-counter ranges, original vs DSR
//	E2 / Fig. 2   — min/average/max execution time, original vs DSR
//	E3 / Fig. 3   — the pWCET curve of the DSR binary
//	E4            — the i.i.d. verification (Ljung-Box + KS p-values)
//	E5            — pWCET vs the MOET+20% industrial margin
//
// plus the A1–A5 ablation campaigns (eager/lazy, offset bound, PRNG,
// hardware randomisation, static randomisation).
package experiments

import (
	"fmt"
	"strings"

	"dsr/internal/bus"
	"dsr/internal/cache"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/layout"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/prng"
	"dsr/internal/prog"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
	"dsr/internal/stats"
	"dsr/internal/telemetry"
	"dsr/internal/workload"
)

// Config dimensions a measurement campaign.
type Config struct {
	// Runs is the number of measurement runs per configuration; the
	// paper's campaigns use on the order of 1000.
	Runs int
	// SeedBase is the campaign base seed: per-run layout seeds (DSR
	// reboots, static builds, hardware cache reseeds) are derived from
	// it by the campaign engine's splittable seed schedule
	// (campaign.NewSchedule), so every run's seed is a pure function of
	// (SeedBase, run index) regardless of execution order.
	SeedBase uint64
	// InputSeedBase seeds the per-run input vectors; baseline and
	// randomised campaigns share it so runs are pairwise comparable.
	InputSeedBase uint64
	// MBPTA is the analysis configuration (E3/E4/E5).
	MBPTA mbpta.Options
	// Margin is the industrial engineering margin (E5; paper: 20%).
	Margin float64

	// Workers shards the campaign's runs across this many workers, each
	// with its own platform instance: 0 (the default) selects
	// runtime.NumCPU(), 1 selects the legacy strictly sequential
	// in-process loop. Campaign output — cycles, counters, telemetry
	// attribution, event ordering — is byte-identical for every worker
	// count (the engine's determinism invariant).
	Workers int

	// Telemetry, when non-nil, receives one RunRecord per measured run
	// (metrics, events and the campaign timeline). A nil campaign
	// disables recording at zero cost. Recording happens during the
	// canonical-order merge, on the calling goroutine, so worker count
	// does not change what is recorded.
	Telemetry *telemetry.Campaign
	// Stream, when non-nil, receives every merged unit-of-analysis
	// duration in canonical run order as shards complete: streaming
	// MBPTA ingestion, ready for Stream.Report once the campaign ends.
	Stream *mbpta.Stream
	// Attribution enables the cycle-attribution profiler on every
	// campaign platform, so each RunResult carries a per-component
	// cycle split (and Series.Attribution the campaign aggregate).
	Attribution bool
	// Progress, when non-nil, is called after every merged run with
	// the series name, the runs finished so far, and the total; calls
	// arrive in canonical order from the calling goroutine.
	Progress func(series string, done, total int)

	// Interrupt, when non-nil, requests a cooperative campaign stop when
	// it fires (see campaign.Config.Interrupt): the engine drains
	// in-flight runs, merges the contiguous completed prefix, and the
	// series constructor returns campaign.ErrInterrupted. A cancelled
	// campaign leaves every already-merged surface (telemetry, stream,
	// progress) exactly as an uncancelled campaign would have at that
	// prefix.
	Interrupt <-chan struct{}

	// Tracer, when non-nil, records host wall-time spans of the campaign
	// execution itself (worker/run/boot/reloc/execute phases) for the
	// worker-utilization report and live observability. Spans never
	// enter the deterministic telemetry dump: enabling the tracer cannot
	// change campaign results.
	Tracer *telemetry.Tracer
	// Observer, when non-nil, is notified of series lifecycle and every
	// merged unit-of-analysis value, in canonical order from the calling
	// goroutine — the live-introspection feed behind internal/obs. Like
	// Progress, it observes the merge; it cannot influence it.
	Observer RunObserver
}

// RunObserver receives the campaign's live progress feed. All calls
// arrive from the merge goroutine in canonical run order; a run's
// index is its canonical campaign index, and uoa is its merged
// unit-of-analysis duration in cycles.
type RunObserver interface {
	BeginSeries(series string, total int)
	ObserveRun(series string, index int, uoa float64)
	EndSeries(series string)
}

// DefaultConfig returns the paper-scale campaign configuration.
func DefaultConfig() Config {
	return Config{
		Runs:          1000,
		SeedBase:      1,
		InputSeedBase: 9000,
		MBPTA:         mbpta.DefaultOptions(),
		Margin:        0.20,
	}
}

// Series is one campaign: every run's result under one configuration.
type Series struct {
	Name    string
	Cycles  []float64
	Results []platform.RunResult
	// Attribution is the campaign-aggregate cycle attribution (the sum
	// over runs); Valid only when Config.Attribution was set.
	Attribution telemetry.AttributionSnapshot
}

// MinMeanMax summarises the execution times (Fig. 2's three bars).
func (s *Series) MinMeanMax() (min, mean, max float64) {
	return stats.Min(s.Cycles), stats.Mean(s.Cycles), stats.Max(s.Cycles)
}

// engine returns the campaign engine configuration of a series.
func (cfg *Config) engine() campaign.Config {
	return campaign.Config{Runs: cfg.Runs, Workers: cfg.Workers, Tracer: cfg.Tracer, Interrupt: cfg.Interrupt}
}

// schedule returns the campaign's layout-seed schedule.
func (cfg *Config) schedule() campaign.Schedule {
	return campaign.NewSchedule(cfg.SeedBase)
}

// busStream is the Split stream index of the bus-contention seed
// schedule (kept distinct from the layout stream).
const busStream = 1

// record books one merged run into the series, the telemetry campaign
// and the MBPTA stream, and fires the progress callback. It is called
// only from the engine's canonical-order merge, so writes land in run
// order on the calling goroutine.
func (cfg *Config) record(s *Series, i int, seed uint64, res platform.RunResult) {
	uoa := uoaCycles(res)
	// Pre-sized indexed writes, not append: the slices are allocated to
	// cfg.Runs up front so a merge can never grow a slice another
	// reader holds, and so indices are explicit rather than implied by
	// append order.
	s.Cycles[i] = uoa
	s.Results[i] = res
	s.Attribution.Add(res.Attribution)
	cfg.Stream.Observe(uoa)
	cfg.Telemetry.RecordRun(telemetry.RunRecord{
		Series: s.Name, Index: i, Seed: seed,
		Cycles: res.Cycles, UoA: uoa, Attribution: res.Attribution,
	})
	if cfg.Observer != nil {
		cfg.Observer.ObserveRun(s.Name, i, uoa)
	}
	if cfg.Progress != nil {
		cfg.Progress(s.Name, i+1, cfg.Runs)
	}
}

// shard is one run's outcome as produced by a campaign worker, before
// the canonical-order merge.
type shard struct {
	seed   uint64
	res    platform.RunResult
	events []telemetry.Event
}

// runSeries runs one series recipe: every worker hosts the workload,
// every run activates (reboots or forks) and executes it. The engine
// merges the results back in canonical run order: replayed runtime
// events first (exactly where the sequential loop would have emitted
// them live, at the pre-run campaign-clock position), then the run
// record itself.
func (cfg Config) runSeries(name string, wl workload.Workload) (*Series, error) {
	wl.InputBase = cfg.InputSeedBase
	wl.Attribution = cfg.Attribution
	wl.Capture = cfg.Telemetry != nil // only the merge below replays events
	wl.Tracer = cfg.Tracer
	s := &Series{
		Name:    name,
		Cycles:  make([]float64, cfg.Runs),
		Results: make([]platform.RunResult, cfg.Runs),
	}
	if cfg.Observer != nil {
		cfg.Observer.BeginSeries(name, cfg.Runs)
	}
	newWorker := func(w int) (campaign.RunFunc[shard], error) {
		h, err := wl.Host(w)
		if err != nil {
			return nil, err
		}
		return func(i int) (shard, error) {
			if err := h.Activate(uint64(i)); err != nil {
				return shard{}, err
			}
			res, err := h.Run()
			if err != nil {
				return shard{}, err
			}
			return shard{seed: h.Seed(), res: res, events: h.Events()}, nil
		}, nil
	}
	err := campaign.Execute(cfg.engine(), newWorker, func(i int, sh shard) error {
		if cfg.Telemetry != nil {
			cfg.Telemetry.Events.ReplayAt(cfg.Telemetry.Now(), sh.events)
		}
		cfg.record(s, i, sh.seed, sh.res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.Observer != nil {
		cfg.Observer.EndSeries(name)
	}
	return s, nil
}

// uoaCycles extracts the unit-of-analysis duration from the run's
// instrumentation trace (ipoints 1→2, §V); it falls back to the whole
// run when the trace is absent.
func uoaCycles(res platform.RunResult) float64 {
	if ds := rvs.Durations(res.Trace, 1, 2); len(ds) > 0 {
		return float64(ds[0])
	}
	return float64(res.Cycles)
}

// controlTask is the control task on the paper's platform with a fresh
// input vector per run — the recipe every control-task series varies.
func controlTask(layout workload.Layout) workload.Workload {
	return workload.Workload{
		Build:    spaceapp.BuildControl,
		Platform: platform.ProximaLEON3(),
		Layout:   layout,
		Input:    workload.ControlInput,
	}
}

// RunBaseline measures the original (non-randomised) binary: one fixed
// sequential layout, fresh input per run, and a fork of the booted
// platform (cache and memory state) before every run — the paper's
// COTS configuration.
func RunBaseline(cfg Config) (*Series, error) {
	return cfg.runSeries("No Rand", controlTask(workload.FixedImage))
}

// dsrSeries is the common DSR campaign: each worker owns a fresh
// platform and DSR runtime (newOpts builds worker-private options, in
// particular a private PRNG source), and every run reboots with its
// schedule-derived seed.
func dsrSeries(cfg Config, name string, newOpts func() core.Options) (*Series, error) {
	wl := controlTask(workload.DSR)
	wl.Options = newOpts
	wl.Seed = cfg.schedule().Seed
	return cfg.runSeries(name, wl)
}

// RunDSR measures the dynamically software-randomised binary: partition
// reboot with a fresh seed before every run (§IV).
func RunDSR(cfg Config) (*Series, error) {
	return dsrSeries(cfg, "Sw Rand", nil)
}

// RunDSRLazy is the A1 ablation: lazy relocation inside the measured
// window.
func RunDSRLazy(cfg Config) (*Series, error) {
	return dsrSeries(cfg, "Sw Rand (lazy)", func() core.Options { return core.Options{Mode: core.Lazy} })
}

// RunDSRWithOffsetBound is the A2 ablation: DSR with a caller-chosen
// placement offset bound (e.g. the L1 way size instead of the L2's).
func RunDSRWithOffsetBound(cfg Config, bound int, name string) (*Series, error) {
	return dsrSeries(cfg, name, func() core.Options { return core.Options{OffsetBound: bound} })
}

// RunDSRWithPRNG is the A3 ablation: DSR drawing from a caller-chosen
// generator (MWC vs LFSR). newSrc is a factory rather than an instance
// because each campaign worker needs its own private source: a Source
// is not safe for concurrent use, and Seed fully re-initialises state,
// so factory-fresh instances give identical results at any worker
// count.
func RunDSRWithPRNG(cfg Config, newSrc func() prng.Source, name string) (*Series, error) {
	return dsrSeries(cfg, name, func() core.Options { return core.Options{Source: newSrc()} })
}

// RunHWRand is the A4 ablation: the unmodified binary on hardware
// time-randomised caches (random placement and replacement), reseeded
// per run. The reseed follows the fork's restore, so every run's
// placement hash and replacement stream are the schedule's, exactly as
// on a fresh boot.
func RunHWRand(cfg Config) (*Series, error) {
	sched := cfg.schedule()
	wl := controlTask(workload.FixedImage)
	wl.Platform = platform.HWRandLEON3()
	wl.Seed = sched.Seed
	wl.Reseed = func(plat *platform.Platform, i int) { plat.ReseedCaches(sched.Seed(i)) }
	return cfg.runSeries("Hw Rand", wl)
}

// RunStatic is the A5 ablation: static software randomisation — one
// fresh randomised binary per run, zero runtime overhead (TASA-style).
func RunStatic(cfg Config) (*Series, error) {
	wl := controlTask(workload.StaticBuild)
	wl.Seed = cfg.schedule().Seed
	return cfg.runSeries("Static Rand", wl)
}

// counterRange formats a min-max counter span the way Table I does
// ("126-127", or just "126" when constant).
func counterRange(vals []uint64) string {
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		return fmt.Sprintf("%d", min)
	}
	return fmt.Sprintf("%d-%d", min, max)
}

// Table1Row is one line of Table I.
type Table1Row struct {
	Config string
	ICMiss string
	DCMiss string
	L2Miss string
	FPU    string
	Instr  string
	// L2MissRatio is the §VI derived metric (min-max).
	L2MissRatio string
}

// Table1 builds the performance-counter comparison of Table I.
func Table1(series ...*Series) []Table1Row {
	rows := make([]Table1Row, 0, len(series))
	for _, s := range series {
		n := len(s.Results)
		ic := make([]uint64, n)
		dc := make([]uint64, n)
		l2 := make([]uint64, n)
		fpu := make([]uint64, n)
		instr := make([]uint64, n)
		ratios := make([]float64, n)
		for i, r := range s.Results {
			ic[i], dc[i], l2[i] = r.PMCs.ICMiss, r.PMCs.DCMiss, r.PMCs.L2Miss
			fpu[i], instr[i] = r.PMCs.FPU, r.PMCs.Instr
			ratios[i] = r.PMCs.L2MissRatio()
		}
		rows = append(rows, Table1Row{
			Config: s.Name,
			ICMiss: counterRange(ic),
			DCMiss: counterRange(dc),
			L2Miss: counterRange(l2),
			FPU:    counterRange(fpu),
			Instr:  counterRange(instr),
			L2MissRatio: fmt.Sprintf("%.1f%%-%.1f%%",
				stats.Min(ratios)*100, stats.Max(ratios)*100),
		})
	}
	return rows
}

// FormatTable1 renders Table I as text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: PERFORMANCE COUNTER READINGS FOR THE CONTROL TASK\n")
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-10s %-16s %s\n",
		"", "icmiss", "dcmiss", "L2miss", "FPU", "Instr", "L2 miss ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-10s %-16s %s\n",
			r.Config, r.ICMiss, r.DCMiss, r.L2Miss, r.FPU, r.Instr, r.L2MissRatio)
	}
	return b.String()
}

// Fig2Bar is one configuration of Fig. 2.
type Fig2Bar struct {
	Config string
	Min    float64
	Mean   float64
	Max    float64
}

// Figure2 builds the min/average/max comparison of Fig. 2.
func Figure2(series ...*Series) []Fig2Bar {
	bars := make([]Fig2Bar, 0, len(series))
	for _, s := range series {
		min, mean, max := s.MinMeanMax()
		bars = append(bars, Fig2Bar{Config: s.Name, Min: min, Mean: mean, Max: max})
	}
	return bars
}

// FormatFigure2 renders Fig. 2 as text with proportional bars.
func FormatFigure2(bars []Fig2Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG. 2: AVERAGE PERFORMANCE COMPARISON (execution time, cycles)\n")
	var scale float64
	for _, bar := range bars {
		if bar.Max > scale {
			scale = bar.Max
		}
	}
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-16s min=%-10.0f avg=%-10.0f max=%-10.0f |%s\n",
			bar.Config, bar.Min, bar.Mean, bar.Max,
			strings.Repeat("#", int(bar.Mean/scale*40))+
				strings.Repeat(".", int((bar.Max-bar.Mean)/scale*40)))
	}
	return b.String()
}

// Figure3 runs MBPTA on a series and returns the report that backs the
// pWCET curve of Fig. 3.
func Figure3(s *Series, opts mbpta.Options) (*mbpta.Report, error) {
	return mbpta.Analyse(s.Cycles, opts)
}

// RenderFigure3 renders the Fig. 3 plot for a series.
func RenderFigure3(s *Series, rep *mbpta.Report) string {
	return rvs.RenderCurve(rep, s.Cycles, 72, 18)
}

// FormatIID renders the E4 i.i.d. verification summary.
func FormatIID(rep mbpta.IIDReport) string {
	verdict := "REJECTED — EVT not applicable"
	if rep.Pass() {
		verdict = "PASSED — EVT applicable"
	}
	return fmt.Sprintf(
		"i.i.d. verification (alpha=%.2f):\n"+
			"  Ljung-Box (independence):        Q=%.2f  p=%.4f\n"+
			"  Kolmogorov-Smirnov (identical):  D=%.4f p=%.4f\n"+
			"  verdict: %s\n",
		rep.Alpha, rep.LjungBox.Statistic, rep.LjungBox.PValue,
		rep.KS.Statistic, rep.KS.PValue, verdict)
}

// FormatMargin renders the E5 comparison against industrial practice.
func FormatMargin(mc mbpta.MarginComparison, dsrMOET float64) string {
	return fmt.Sprintf(
		"pWCET vs industrial practice:\n"+
			"  non-randomised MOET:             %.0f cycles\n"+
			"  MOET + %.0f%% engineering margin:  %.0f cycles\n"+
			"  DSR MOET:                        %.0f cycles\n"+
			"  MBPTA pWCET @ 1e-15:             %.0f cycles (+%.2f%% over DSR MOET)\n"+
			"  pWCET is %.1f%% tighter than the margin budget\n",
		mc.MOETRef, mc.Margin*100, mc.Budget, dsrMOET,
		mc.PWCET, mc.OverMOET*100, mc.Gain*100)
}

// RunDSRWithContention is the future-work experiment of §VII (ii): DSR
// under multicore bus interference. With a random (time-randomisable)
// arbiter model the interference is one more i.i.d. jitter source, so
// MBPTA still applies and the pWCET absorbs the contention; with the
// worst-case model every transaction is padded, giving the conventional
// deterministic upper-bounding treatment for comparison.
func RunDSRWithContention(cfg Config, cont bus.Contention, name string) (*Series, error) {
	sched := cfg.schedule()
	busSched := sched.Split(busStream)
	wl := controlTask(workload.DSR)
	wl.Seed = sched.Seed
	// Reseed before boot too: the relocation pass's bus traffic must
	// draw from run i's contention stream, not from state left by
	// whatever run this worker executed before — the determinism
	// invariant again. The second reseed restores the measured window's
	// canonical draw sequence.
	wl.Reseed = func(plat *platform.Platform, i int) {
		plat.Bus.SetContention(cont)
		plat.Bus.ReseedContention(busSched.Seed(i))
	}
	return cfg.runSeries(name, wl)
}

// RunProcessing measures the image-processing task under DSR with scenes
// drawn at the given lit-lens fraction. It supports the future-work
// study of §VII (i): the task's execution path depends on how many
// lenses are lightened (the high-level jitter source), and MBPTA bounds
// only the paths exercised — measurements at the worst path (all lenses
// lit, litFrac=1) upper-bound the path dimension the way EPC
// (Ziccardi et al., RTSS'15) would.
func RunProcessing(cfg Config, litFrac float64, name string) (*Series, error) {
	return cfg.runSeries(name, workload.Workload{
		Build:       spaceapp.BuildProcessing,
		Platform:    platform.ProximaLEON3(),
		Layout:      workload.DSR,
		Seed:        cfg.schedule().Seed,
		Input:       workload.SceneInput,
		LitFraction: litFrac,
	})
}

// ControlLayoutWeights returns the interaction weights of the control
// task for cache-aware positioning: the static call graph plus the data
// pairs that are hot across the EDAC-scrub pass (the conflicts behind
// the baseline's bad layout).
func ControlLayoutWeights(p *prog.Program) layout.Weights {
	w := layout.StaticCallWeights(p)
	// The corrector pass re-reads the influence matrix and filter state
	// right after the scrub streams the whole window through the caches.
	w.Add(spaceapp.SymInfluence, spaceapp.SymScrub, 10)
	w.Add(spaceapp.SymFilterState, spaceapp.SymScrub, 5)
	w.Add(spaceapp.SymOutF, spaceapp.SymScrub, 3)
	// The CRC stages alternate between the frame, the ring and the table.
	w.Add(spaceapp.SymCRCTable, spaceapp.SymTelemetry, 3)
	w.Add(spaceapp.SymCRCTable, spaceapp.SymHistory, 3)
	w.Add(spaceapp.SymTelemetry, spaceapp.SymHistory, 2)
	return w
}

// RunPositioned is the A7 ablation: the cache-aware procedure/data
// positioning of Mezzetti & Vardanega (RTAS'13, the paper's reference
// [12]) — one deterministic layout engineered to avoid the weighted
// conflicts, instead of randomising over all layouts. It typically beats
// DSR's average (no overhead, no bad layouts) but, like any single
// layout, offers no representativeness argument and must be re-derived
// at every integration.
func RunPositioned(cfg Config) (*Series, error) {
	wl := controlTask(workload.FixedImage)
	wl.Place = func(p *prog.Program, l2 cache.Config) (loader.Placement, error) {
		return layout.Optimize(p, l2, ControlLayoutWeights(p), loader.DefaultSequentialConfig())
	}
	return cfg.runSeries("Positioned", wl)
}
