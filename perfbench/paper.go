package main

import (
	"fmt"
	"time"

	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/cpu"
	"dsr/internal/experiments"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/rvs"
	"dsr/internal/spaceapp"
)

// paper_campaign: the paper's Table I / Fig. 2 / Fig. 3 protocol on the
// control task. One round is a No Rand series (fork-restore) and an
// eager-DSR Sw Rand series of paperRuns runs each, every run checked
// against the golden model, then MBPTA (i.i.d. gate, EVT, pWCET at
// 1e-15) and the margin comparison. Runs are short, so the per-run
// work around execution (reboot and relocation, fork restore, merge)
// takes its largest share here.

// paperConfig is the seed's campaign configuration.
func paperConfig(b *bench, workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = b.size.paperRuns
	cfg.SeedBase = mix(b.seed, 0)
	cfg.InputSeedBase = mix(b.seed, 1)
	cfg.MBPTA.BlockSize = blockSize(cfg.Runs)
	cfg.Workers = workers
	return cfg
}

// blockSize is the MBPTA block size dsrrun picks for a campaign of
// runs: the default, shrunk (floor 5) below ten block maxima.
func blockSize(runs int) int {
	bs := mbpta.DefaultOptions().BlockSize
	if runs/bs < 10 {
		bs = max(runs/10, 5)
	}
	return bs
}

// paperAnalysis is the protocol's final report.
type paperAnalysis struct {
	baseIID mbpta.IIDReport
	baseErr error
	rep     *mbpta.Report
	err     error
	margin  mbpta.MarginComparison
}

// analysePaper gates both series through the i.i.d. tests, runs MBPTA
// on the DSR series and compares its pWCET with MOET + margin on the
// No Rand series. An i.i.d. rejection is a result, not a failure: it is
// a deterministic function of the inputs and enters the digest.
func analysePaper(base, dsr []float64, cfg experiments.Config) paperAnalysis {
	var a paperAnalysis
	a.baseIID, a.baseErr = mbpta.CheckIID(base, cfg.MBPTA)
	a.rep, a.err = mbpta.Analyse(dsr, cfg.MBPTA)
	if a.err == nil {
		moet := 0.0
		for _, c := range base {
			moet = max(moet, c)
		}
		a.margin = mbpta.CompareWithMargin(a.rep, moet, cfg.Margin)
	}
	return a
}

func paperDigest(base, dsr []float64, t *tally, a paperAnalysis) string {
	d := newDigest()
	d.add("norand %v", base)
	d.add("swrand %v", dsr)
	t.digest(d)
	d.add("norand iid lb=%v ks=%v err=%v", a.baseIID.LjungBox.PValue, a.baseIID.KS.PValue, a.baseErr != nil)
	if a.rep != nil {
		d.add("swrand iid lb=%v ks=%v moet=%v pwcet=%v alt=%v",
			a.rep.IID.LjungBox.PValue, a.rep.IID.KS.PValue, a.rep.MOET, a.rep.PWCET, a.rep.PWCETAlt)
	}
	d.add("analysis err=%v margin %+v", a.err != nil, a.margin)
	return d.sum()
}

// firstMerge wraps cfg so the time from now to its first merged run is
// appended to setups (when non-nil).
func firstMerge(cfg experiments.Config, setups *[]float64) experiments.Config {
	start, first := time.Now(), true
	cfg.Progress = func(string, int, int) {
		if first && setups != nil {
			*setups = append(*setups, time.Since(start).Seconds())
		}
		first = false
	}
	return cfg
}

// paperRound runs the protocol once through the experiments API.
func paperRound(cfg experiments.Config, setups *[]float64) (string, tally, error) {
	var t tally
	base, err := experiments.RunBaseline(firstMerge(cfg, setups))
	if err != nil {
		return "", t, err
	}
	dsr, err := experiments.RunDSR(firstMerge(cfg, setups))
	if err != nil {
		return "", t, err
	}
	for _, s := range []*experiments.Series{base, dsr} {
		for _, res := range s.Results {
			t.add(res.PMCs)
		}
	}
	a := analysePaper(base.Cycles, dsr.Cycles, cfg)
	return paperDigest(base.Cycles, dsr.Cycles, &t, a), t, nil
}

func paperE2E(b *bench) (map[string]metric, string, error) {
	cfg := paperConfig(b, b.workers)
	perRound := 2 * cfg.Runs
	var r e2eRun
	var want string
	err := r.measure(b.measure, func() error {
		d, t, err := paperRound(cfg, &r.setups)
		b.attempted += perRound
		if err != nil {
			b.fail(perRound, "paper round: %v", err)
			return nil
		}
		r.runs += t.runs
		r.instr += float64(t.instr)
		if want == "" {
			want = d
		}
		b.checkDigest("repeated round", want, d, perRound)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	for _, s := range r.rounds {
		r.jobs = append(r.jobs, 1e3*s)
	}
	d1, _, err := paperRound(paperConfig(b, 1), nil)
	b.attempted += perRound
	if err != nil {
		b.fail(perRound, "paper round at 1 worker: %v", err)
	} else {
		b.checkDigest("workers=1", want, d1, perRound)
	}
	return r.metrics(), want, nil
}

func paperTraced(b *bench) (map[string]metric, string, error) {
	cfg := paperConfig(b, 1)
	perRound := 2 * cfg.Runs
	want, _, err := paperRound(cfg, nil)
	b.attempted += perRound
	if err != nil {
		b.fail(perRound, "paper round at 1 worker: %v", err)
	}
	var t tally
	rounds, untraced, gc, err := traceRounds(b.measure, func(tr *tracer) error {
		d, rt, err := paperReplica(cfg, tr)
		b.attempted += perRound
		if err != nil {
			b.fail(perRound, "replayed paper round: %v", err)
			return nil
		}
		b.checkDigest("replica", want, d, perRound)
		t = rt
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	b.accounting(rounds, untraced)
	return layerMetrics(rounds, gc, t, untraced), want, nil
}

// runRec is one replayed run before the canonical merge.
type runRec struct {
	uoa       float64 // unit-of-analysis cycles
	cycles    uint64  // whole-run cycles
	pmcs      platform.PMCs
	rebooted  bool
	relocated uint64
}

// replay runs a series through the campaign engine as the program's
// own series constructors do, under tr's spans: campaign (the engine's
// claim, merge and idle time), campaign.setup (worker construction)
// and campaign.run (each run). A traced replay runs at one worker.
func replay[R any](tr *tracer, runs, workers int, newWorker func() (func(int) (R, error), error)) ([]R, error) {
	if tr != nil && workers != 1 {
		panic("perfbench: traced replays run at one worker")
	}
	out := make([]R, runs)
	tr.begin("campaign")
	err := campaign.Execute(campaign.Config{Runs: runs, Workers: workers},
		func(int) (campaign.RunFunc[R], error) {
			tr.begin("campaign.setup")
			run, err := newWorker()
			tr.end()
			if err != nil {
				return nil, err
			}
			return func(i int) (R, error) {
				tr.begin("campaign.run")
				r, err := run(i)
				tr.end()
				return r, err
			}, nil
		},
		func(i int, r R) error {
			out[i] = r
			return nil
		})
	tr.end()
	return out, err
}

// uoa is the run's unit-of-analysis duration (ipoints 1→2), or the
// whole run when the trace has none.
func uoa(res platform.RunResult) float64 {
	if ds := rvs.Durations(res.Trace, 1, 2); len(ds) > 0 {
		return float64(ds[0])
	}
	return float64(res.Cycles)
}

// controlRun applies a control input, runs the partition and checks
// the result against the golden model.
func controlRun(tr *tracer, m *cpu.Memory, img *loader.Image, in *spaceapp.ControlInput, run func() (platform.RunResult, error)) (runRec, error) {
	tr.begin("spaceapp.input_gen")
	err := spaceapp.ApplyControlInput(m, img, in)
	tr.end()
	if err != nil {
		return runRec{}, err
	}
	tr.begin("cpu.exec")
	res, err := run()
	tr.end()
	if err != nil {
		return runRec{}, err
	}
	tr.begin("spaceapp.reference")
	want := spaceapp.ControlReference(in)
	tr.end()
	if res.ExitValue != want {
		return runRec{}, fmt.Errorf("golden-model mismatch: got %#x, want %#x", res.ExitValue, want)
	}
	return runRec{uoa: uoa(res), cycles: uint64(res.Cycles), pmcs: res.PMCs}, nil
}

// controlInput generates run i's control input.
func controlInput(tr *tracer, cfg experiments.Config, i int) *spaceapp.ControlInput {
	tr.begin("spaceapp.input_gen")
	defer tr.end()
	return spaceapp.GenControlInput(cfg.InputSeedBase + uint64(i))
}

// baselineWorker mirrors experiments.RunBaseline's worker: one fixed
// sequential layout booted once and forked before every run.
func baselineWorker(cfg experiments.Config, tr *tracer) func() (func(int) (runRec, error), error) {
	return func() (func(int) (runRec, error), error) {
		tr.begin("spaceapp.build")
		p, err := spaceapp.BuildControl()
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("platform.boot")
		img, err := loader.Load(p, loader.DefaultSequentialConfig())
		if err != nil {
			tr.end()
			return nil, err
		}
		plat := platform.New(platform.ProximaLEON3())
		plat.LoadImage(img)
		snap := plat.Snapshot()
		tr.end()
		return func(i int) (runRec, error) {
			in := controlInput(tr, cfg, i)
			tr.begin("platform.restore")
			plat.Restore(snap)
			tr.end()
			return controlRun(tr, plat.Mem, img, in, plat.Run)
		}, nil
	}
}

// dsrWorker mirrors the worker of experiments.RunDSR: a DSR runtime
// rebooted with the run's schedule seed before every run.
func dsrWorker(cfg experiments.Config, tr *tracer) func() (func(int) (runRec, error), error) {
	sched := campaign.NewSchedule(cfg.SeedBase)
	return func() (func(int) (runRec, error), error) {
		tr.begin("spaceapp.build")
		p, err := spaceapp.BuildControl()
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("platform.boot")
		plat := platform.New(platform.ProximaLEON3())
		tr.end()
		tr.begin("core.transform")
		rt, err := core.NewRuntime(p, plat, core.Options{})
		tr.end()
		if err != nil {
			return nil, err
		}
		return func(i int) (runRec, error) {
			tr.begin("core.reboot")
			bs, err := rt.Reboot(sched.Seed(i))
			tr.end()
			if err != nil {
				return runRec{}, err
			}
			in := controlInput(tr, cfg, i)
			rec, err := controlRun(tr, plat.Mem, rt.Image(), in, rt.Run)
			rec.rebooted, rec.relocated = true, uint64(bs.RelocatedBytes)
			return rec, err
		}, nil
	}
}

// paperReplica replays one protocol round with the benchmark's own
// spans around every call into the program.
func paperReplica(cfg experiments.Config, tr *tracer) (string, tally, error) {
	var t tally
	base, err := replay(tr, cfg.Runs, 1, baselineWorker(cfg, tr))
	if err != nil {
		return "", t, err
	}
	dsr, err := replay(tr, cfg.Runs, 1, dsrWorker(cfg, tr))
	if err != nil {
		return "", t, err
	}
	tr.begin("bench.merge")
	baseC, dsrC := make([]float64, len(base)), make([]float64, len(dsr))
	for i, r := range base {
		baseC[i] = r.uoa
		t.addRun(r)
	}
	for i, r := range dsr {
		dsrC[i] = r.uoa
		t.addRun(r)
	}
	tr.end()
	tr.begin("mbpta")
	a := analysePaper(baseC, dsrC, cfg)
	tr.end()
	tr.begin("bench.digest")
	defer tr.end()
	return paperDigest(baseC, dsrC, &t, a), t, nil
}
