// Package workload is the one measurement recipe every campaign runs:
// build the program, build a worker-private platform, lay the program
// out, and then per run reboot (or fork), apply the run's input,
// execute and check the result against the golden model (§IV–VI).
// The paper's configurations — No Rand, Sw Rand eager/lazy, Hw Rand,
// static randomisation — differ only in the Workload value: its layout
// policy, platform, seeds, reseed hook and input.
//
// A Workload builds one host per campaign worker. The host implements
// rtos.Runner, so a partitioned executive drives it directly, and adds
// the unbudgeted Run the measurement campaigns use.
package workload

import (
	"fmt"

	"dsr/internal/cache"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
	"dsr/internal/telemetry"
)

// Layout is a workload's layout policy: how the program is placed in
// memory and how a run's reboot re-establishes that placement.
type Layout int

const (
	// FixedImage links one image per worker (sequential, or Place's
	// positioned layout), boots it once and forks the booted platform
	// with Restore before every run.
	FixedImage Layout = iota
	// DSR reboots a core.Runtime with the run's seed before every run,
	// drawing a fresh random layout (§IV).
	DSR
	// StaticBuild links a fresh randomised image per run (static
	// software randomisation); the image changes per run, so it cannot
	// fork and reloads memory instead.
	StaticBuild
)

// Input is the kind of per-run input a workload applies after the
// reboot, and the golden model its results are checked against.
type Input int

const (
	// NoInput runs the program as loaded and checks nothing.
	NoInput Input = iota
	// ControlInput applies a control-task input vector and checks the
	// exit value against spaceapp.ControlReference.
	ControlInput
	// SceneInput applies an image-processing scene lit at LitFraction
	// and checks the exit value against spaceapp.ProcessingReference.
	SceneInput
)

// Workload is one campaign's recipe. Build, Platform and Layout are
// required; every other field's zero value is the common case.
type Workload struct {
	// Build returns a fresh program; it is called once per worker, so
	// workers never share program state.
	Build func() (*prog.Program, error)
	// Platform configures each worker's platform.
	Platform platform.Config
	// Layout is the layout policy.
	Layout Layout
	// Place, for FixedImage, positions the program for the platform's
	// L2; nil links it sequentially.
	Place func(p *prog.Program, l2 cache.Config) (loader.Placement, error)
	// Options, for DSR, returns worker-private runtime options (a PRNG
	// source is not safe to share); nil selects core.Options{}.
	Options func() core.Options
	// Seed returns activation i's layout seed (the DSR reboot seed, the
	// static build seed, the value a Reseed hook may use); nil is the
	// fixed seed 0.
	Seed func(i int) uint64
	// Reseed, when non-nil, runs right before and right after each
	// reboot: hardware cache reseeding, bus-contention streams. On a
	// FixedImage fork the first call is reverted by Restore.
	Reseed func(plat *platform.Platform, i int)
	// Input is the per-run input kind; activation i's input is
	// generated from InputBase+i.
	Input       Input
	InputBase   uint64
	LitFraction float64

	// Attribution enables the cycle-attribution profiler.
	Attribution bool
	// Capture records DSR runtime events per run for the campaign merge
	// to replay (Events); without it the runtime logs nothing.
	Capture bool
	// Tracer receives each worker's boot/reloc/execute spans.
	Tracer *telemetry.Tracer
}

// host runs a Workload on one worker's private platform.
type host struct {
	wl   *Workload
	prog *prog.Program
	plat *platform.Platform
	wt   *telemetry.WorkerTracer
	// img is the fixed image (FixedImage) or the current run's build
	// (StaticBuild); snap is the booted FixedImage state runs fork from.
	img  *loader.Image
	snap *platform.Snapshot
	// rt is the DSR runtime and capture its event log (nil when off).
	rt      *core.Runtime
	capture *telemetry.EventLog

	// The current activation: its seed and input.
	seed  uint64
	in    *spaceapp.ControlInput
	scene *spaceapp.Scene
}

// Host builds worker w's host: program, platform, layout and, for a
// fixed image, the booted snapshot every run forks from. Hosts share
// wl, so it must not change while they run.
func (wl *Workload) Host(w int) (*host, error) {
	p, err := wl.Build()
	if err != nil {
		return nil, err
	}
	plat := platform.New(wl.Platform)
	if wl.Attribution {
		plat.EnableAttribution()
	}
	h := &host{wl: wl, prog: p, plat: plat, wt: wl.Tracer.Worker(w)}
	switch wl.Layout {
	case FixedImage:
		if wl.Place == nil {
			h.img, err = loader.Load(p, loader.DefaultSequentialConfig())
		} else {
			var pl loader.Placement
			if pl, err = wl.Place(p, plat.Cfg.L2); err == nil {
				h.img, err = loader.BuildImage(p, pl)
			}
		}
		if err != nil {
			return nil, err
		}
		plat.LoadImage(h.img)
		h.snap = plat.Snapshot()
	case DSR:
		opts := core.Options{}
		if wl.Options != nil {
			opts = wl.Options()
		}
		if h.rt, err = core.NewRuntime(p, plat, opts); err != nil {
			return nil, err
		}
		if wl.Capture {
			h.capture = telemetry.NewCaptureLog()
			h.rt.SetEventLog(h.capture)
		}
		h.rt.SetTracer(h.wt)
	}
	return h, nil
}

// Platform is the worker's platform (attack probes attach here).
func (h *host) Platform() *platform.Platform { return h.plat }

// Seed is the current activation's layout seed.
func (h *host) Seed() uint64 { return h.seed }

// Events returns and clears the runtime events the last activation
// captured (nil without Capture).
func (h *host) Events() []telemetry.Event { return h.capture.Take() }

// Activate implements rtos.Runner: the partition reboot of activation
// i under the layout policy, then the activation's input.
func (h *host) Activate(act uint64) error {
	i := int(act)
	h.seed = 0
	if h.wl.Seed != nil {
		h.seed = h.wl.Seed(i)
	}
	h.reseed(i)
	if h.rt != nil {
		// Reboot emits its own boot and reloc spans.
		if _, err := h.rt.Reboot(h.seed); err != nil {
			return err
		}
		h.reseed(i)
		return h.apply(act, h.rt.Image())
	}
	if h.wl.Layout == StaticBuild {
		// Static randomisation pays its cost at build time: the per-run
		// image build is the relocation phase here.
		reloc := h.wt.Begin(telemetry.SpanReloc, -1)
		img, err := core.StaticBuild(h.prog, loader.DefaultSequentialConfig(), h.plat.Cfg.L2.WaySize(), h.seed)
		h.wt.End(reloc)
		if err != nil {
			return err
		}
		h.img = img
	}
	boot := h.wt.Begin(telemetry.SpanBoot, -1)
	defer h.wt.End(boot)
	if h.snap != nil {
		h.plat.Restore(h.snap)
	} else {
		h.plat.LoadImage(h.img)
		h.plat.Reload()
	}
	h.reseed(i)
	return h.apply(act, h.img)
}

func (h *host) reseed(i int) {
	if h.wl.Reseed != nil {
		h.wl.Reseed(h.plat, i)
	}
}

// apply generates and writes activation act's input.
func (h *host) apply(act uint64, img *loader.Image) error {
	switch h.wl.Input {
	case ControlInput:
		h.in = spaceapp.GenControlInput(h.wl.InputBase + act)
		return spaceapp.ApplyControlInput(h.plat.Mem, img, h.in)
	case SceneInput:
		h.scene = spaceapp.GenScene(h.wl.InputBase+act, h.wl.LitFraction)
		return spaceapp.ApplyScene(h.plat.Mem, img, h.scene)
	}
	return nil
}

// Run executes the activated run to completion and checks it against
// the golden model.
func (h *host) Run() (platform.RunResult, error) {
	exec := h.wt.Begin(telemetry.SpanExecute, -1)
	res, err := h.plat.Run()
	h.wt.End(exec)
	if err != nil {
		return res, err
	}
	return res, h.check(res)
}

// Execute implements rtos.Runner: Run under a window budget. A run cut
// off by its budget is an overrun, not a functional result, so only
// completed runs are checked.
func (h *host) Execute(budget mem.Cycles) (platform.RunResult, bool, error) {
	exec := h.wt.Begin(telemetry.SpanExecute, -1)
	res, done, err := h.plat.RunBudget(budget)
	h.wt.End(exec)
	if err != nil || !done {
		return res, done, err
	}
	return res, done, h.check(res)
}

// check compares a completed run's exit value with the golden model:
// layout randomisation must never change what the software computes.
func (h *host) check(res platform.RunResult) error {
	var want uint32
	switch h.wl.Input {
	case ControlInput:
		want = spaceapp.ControlReference(h.in)
	case SceneInput:
		want = spaceapp.ProcessingReference(h.scene).RMSBits
	default:
		return nil
	}
	if res.ExitValue != want {
		return fmt.Errorf("workload: %s functional mismatch: got %#x, golden %#x", h.prog.Name, res.ExitValue, want)
	}
	return nil
}
