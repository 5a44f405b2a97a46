package main

import (
	"fmt"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/experiments"
	"dsr/internal/loader"
	"dsr/internal/mbpta"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/rtos"
	"dsr/internal/spaceapp"
)

// processing_grid: the four E9 cells (schedule × layout randomisation)
// through experiments.RunE9Cell, gridFrames certified major frames
// each, then the E9 timing analysis of every cell. A major frame is one
// control activation plus ten processing activations; a processing
// activation is memory-bound (its frame buffer dwarfs the L2), and
// scene generation, the processing golden model, the executive and
// schedfeas certification all sit in the path.

// e9SchedStream is the Split stream experiments.RunE9Cell derives each
// cell's schedule-draw seeds from; the replica's digest check fails if
// the two ever disagree.
const e9SchedStream = 2

// gridConfig is the seed's E9 configuration: the MBPTA block scaled to
// the frame count as dsrsim does for E9.
func gridConfig(b *bench, workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = b.size.gridFrames
	cfg.SeedBase = mix(b.seed, 2)
	cfg.InputSeedBase = mix(b.seed, 3)
	cfg.MBPTA.BlockSize = max(1, min(cfg.MBPTA.BlockSize, cfg.Runs/10))
	cfg.Workers = workers
	return cfg
}

// activationsPerFrame counts the partition activations of one major
// frame of the case-study schedule.
func activationsPerFrame() int {
	spec := experiments.CaseStudySchedSpec()
	n := 0
	for _, t := range spec.Tasks {
		n += spec.FrameMillis / t.PeriodMillis
	}
	return n
}

// gridCell is one cell's observables.
type gridCell struct {
	cell     experiments.E9Cell
	cycles   []float64
	offsets  []int
	overruns int
	bits     float64
}

// gridDigest runs the E9 timing analysis of every cell (the i.i.d.
// gate everywhere, MBPTA on the layout-randomised cells; a refusal for
// too few frames is a result) and hashes it with the observables.
func gridDigest(tr *tracer, cells []gridCell, cfg experiments.Config) string {
	d := newDigest()
	for _, c := range cells {
		tr.begin("mbpta")
		iid, ierr := mbpta.CheckIID(c.cycles, cfg.MBPTA)
		var rep *mbpta.Report
		var aerr error
		if c.cell.LayoutRand {
			rep, aerr = mbpta.Analyse(c.cycles, cfg.MBPTA)
		}
		tr.end()
		tr.begin("bench.digest")
		d.add("%s bits=%v overruns=%d", c.cell.Name(), c.bits, c.overruns)
		d.add("cycles %v", c.cycles)
		d.add("offsets %v", c.offsets)
		d.add("iid lb=%v ks=%v err=%v", iid.LjungBox.PValue, iid.KS.PValue, ierr != nil)
		if rep != nil {
			d.add("pwcet=%v moet=%v err=%v", rep.PWCET, rep.MOET, aerr != nil)
		}
		tr.end()
	}
	return d.sum()
}

// gridRound runs the four cells once through the experiments API.
func gridRound(cfg experiments.Config, setups *[]float64) (string, int, error) {
	var cells []gridCell
	overruns := 0
	for _, cell := range experiments.E9Cells() {
		s, err := experiments.RunE9Cell(firstMerge(cfg, setups), cell)
		if err != nil {
			return "", 0, fmt.Errorf("%s: %w", cell.Name(), err)
		}
		cells = append(cells, gridCell{cell, s.ControlCycles, s.ControlOffsets, s.Overruns, s.Static.EntropyBits})
		overruns += s.Overruns
	}
	return gridDigest(nil, cells, cfg), overruns, nil
}

func gridE2E(b *bench) (map[string]metric, string, error) {
	cfg := gridConfig(b, b.workers)
	perRound := len(experiments.E9Cells()) * cfg.Runs * activationsPerFrame()
	var r e2eRun
	var want string
	err := r.measure(b.measure, func() error {
		d, overruns, err := gridRound(cfg, &r.setups)
		b.attempted += perRound
		if err != nil {
			b.fail(perRound, "grid round: %v", err)
			return nil
		}
		if overruns > 0 {
			b.fail(overruns, "grid round: %d window overruns", overruns)
		}
		r.runs += perRound
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

	d1, _, err := gridRound(gridConfig(b, 1), nil)
	b.attempted += perRound
	if err != nil {
		b.fail(perRound, "grid round at 1 worker: %v", err)
	} else {
		b.checkDigest("workers=1", want, d1, perRound)
	}
	// RunE9Cell reports no counters, so the instructions of a round come
	// from the replica, whose digest must match too.
	dr, t, err := gridReplica(cfg, nil, b.workers)
	b.attempted += perRound
	if err != nil {
		b.fail(perRound, "grid replica: %v", err)
	} else {
		b.checkDigest("replica", want, dr, perRound)
	}
	r.instr = float64(t.instr) * float64(r.runs) / float64(perRound)
	return r.metrics(), want, nil
}

func gridTraced(b *bench) (map[string]metric, string, error) {
	cfg := gridConfig(b, 1)
	perRound := len(experiments.E9Cells()) * cfg.Runs * activationsPerFrame()
	want, _, err := gridRound(cfg, nil)
	b.attempted += perRound
	if err != nil {
		b.fail(perRound, "grid round at 1 worker: %v", err)
	}
	var t tally
	rounds, untraced, gc, err := traceRounds(b.measure, func(tr *tracer) error {
		d, rt, err := gridReplica(cfg, tr, 1)
		b.attempted += perRound
		if err != nil {
			b.fail(perRound, "replayed grid round: %v", err)
			return nil
		}
		if rt.overruns > 0 {
			b.fail(rt.overruns, "replayed grid round: %d window overruns", rt.overruns)
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

// gridRunner is the benchmark's rtos.Runner for an E9 partition. It
// mirrors the runner behind experiments.RunE9Cell — reboot (DSR) or
// fork restore, the activation's input, a budgeted run, the golden
// model — with the benchmark's spans around each call.
type gridRunner struct {
	tr        *tracer
	name      string
	control   bool
	plat      *platform.Platform
	img       *loader.Image
	snap      *platform.Snapshot
	rt        *core.Runtime
	seeds     campaign.Schedule
	inputBase uint64
	in        *spaceapp.ControlInput
	scene     *spaceapp.Scene
	t         tally // reboots since the last frame
}

func (r *gridRunner) Name() string { return r.name }

func (r *gridRunner) Activate(act uint64) error {
	img := r.img
	if r.rt != nil {
		r.tr.begin("core.reboot")
		bs, err := r.rt.Reboot(r.seeds.Seed(int(act)))
		r.tr.end()
		if err != nil {
			return err
		}
		r.t.reboots++
		r.t.relocated += uint64(bs.RelocatedBytes)
		img = r.rt.Image()
	} else {
		r.tr.begin("platform.restore")
		r.plat.Restore(r.snap)
		r.tr.end()
	}
	r.tr.begin("spaceapp.input_gen")
	defer r.tr.end()
	if r.control {
		r.in = spaceapp.GenControlInput(r.inputBase + act)
		return spaceapp.ApplyControlInput(r.plat.Mem, img, r.in)
	}
	r.scene = spaceapp.GenScene(r.inputBase+act, spaceapp.LitFraction)
	return spaceapp.ApplyScene(r.plat.Mem, img, r.scene)
}

func (r *gridRunner) Execute(budget mem.Cycles) (platform.RunResult, bool, error) {
	r.tr.begin("cpu.exec")
	var (
		res  platform.RunResult
		done bool
		err  error
	)
	if r.rt != nil {
		res, done, err = r.rt.RunBudget(budget)
	} else {
		res, done, err = r.plat.RunBudget(budget)
	}
	r.tr.end()
	if err != nil || !done {
		return res, done, err
	}
	r.tr.begin("spaceapp.reference")
	var want uint32
	if r.control {
		want = spaceapp.ControlReference(r.in)
	} else {
		want = spaceapp.ProcessingReference(r.scene).RMSBits
	}
	r.tr.end()
	if res.ExitValue != want {
		return res, done, fmt.Errorf("%s golden-model mismatch: got %#x, want %#x", r.name, res.ExitValue, want)
	}
	return res, done, nil
}

// newGridRunner builds a partition runner: a DSR runtime when
// layoutRand, else a fixed image booted once and forked per activation.
func newGridRunner(tr *tracer, name string, layoutRand bool, seeds campaign.Schedule, inputBase uint64) (*gridRunner, error) {
	r := &gridRunner{tr: tr, name: name, control: name == "control", seeds: seeds, inputBase: inputBase}
	build := spaceapp.BuildProcessing
	if r.control {
		build = spaceapp.BuildControl
	}
	tr.begin("spaceapp.build")
	p, err := build()
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("platform.boot")
	r.plat = platform.New(platform.ProximaLEON3())
	tr.end()
	if layoutRand {
		tr.begin("core.transform")
		r.rt, err = core.NewRuntime(p, r.plat, core.Options{})
		tr.end()
		return r, err
	}
	tr.begin("platform.boot")
	defer tr.end()
	if r.img, err = loader.Load(p, loader.DefaultSequentialConfig()); err != nil {
		return nil, err
	}
	r.plat.LoadImage(r.img)
	r.snap = r.plat.Snapshot()
	return r, nil
}

// frameRec is one replayed major frame before the canonical merge.
type frameRec struct {
	cycles float64
	offset int
	t      tally
}

// gridReplica replays one round of the four cells as RunE9Cell runs
// them, with the benchmark's runners under the randomized executive.
func gridReplica(cfg experiments.Config, tr *tracer, workers int) (string, tally, error) {
	var total tally
	var cells []gridCell
	for _, cell := range experiments.E9Cells() {
		tr.begin("schedfeas")
		static := schedfeas.Analyze(experiments.CaseStudySchedSpec(), experiments.CaseStudySchedPolicy(cell.SchedRand), schedfeas.Config{})
		tr.end()
		if static.Cert == nil {
			return "", total, fmt.Errorf("%s: policy not certifiable: %v", cell.Name(), static.Violations)
		}
		layoutSeeds := campaign.NewSchedule(cfg.SeedBase)
		idx := 0
		if cell.LayoutRand {
			idx |= 1
		}
		if cell.SchedRand {
			idx |= 2
		}
		schedSeedBase := layoutSeeds.Split(e9SchedStream).Seed(idx)

		frames, err := replay(tr, cfg.Runs, workers, func() (func(int) (frameRec, error), error) {
			ctrl, err := newGridRunner(tr, "control", cell.LayoutRand, layoutSeeds, cfg.InputSeedBase)
			if err != nil {
				return nil, err
			}
			proc, err := newGridRunner(tr, "processing", false, layoutSeeds, cfg.InputSeedBase)
			if err != nil {
				return nil, err
			}
			parts := []*rtos.Partition{
				{Name: "control", Criticality: rtos.HighCriticality, Runner: ctrl, PeriodMillis: 1000},
				{Name: "processing", Criticality: rtos.LowCriticality, Runner: proc, PeriodMillis: 100},
			}
			tr.begin("rtos.new")
			ex, err := rtos.NewRandomizedExecutive(rtos.DefaultConfig(), parts, static.Cert, schedSeedBase)
			tr.end()
			if err != nil {
				return nil, err
			}
			return func(i int) (frameRec, error) {
				tr.begin("rtos.frame")
				acts, err := ex.RunFrame(i)
				tr.end()
				if err != nil {
					return frameRec{}, err
				}
				f := frameRec{t: ctrl.t}
				ctrl.t = tally{}
				for _, a := range acts {
					f.t.add(a.Result.PMCs)
					if a.Overrun() {
						f.t.overruns++
					}
					if a.Partition == "control" {
						f.cycles, f.offset = uoa(a.Result), a.OffsetMillis
					}
				}
				return f, nil
			}, nil
		})
		if err != nil {
			return "", total, fmt.Errorf("%s: %w", cell.Name(), err)
		}
		tr.begin("bench.merge")
		c := gridCell{cell: cell, cycles: make([]float64, len(frames)), offsets: make([]int, len(frames)), bits: static.EntropyBits}
		for i, f := range frames {
			c.cycles[i], c.offsets[i] = f.cycles, f.offset
			c.overruns += f.t.overruns
			total.merge(f.t)
		}
		cells = append(cells, c)
		tr.end()
	}
	return gridDigest(tr, cells, cfg), total, nil
}
