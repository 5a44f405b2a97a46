package workload

import (
	"reflect"
	"strings"
	"testing"

	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/platform"
	"dsr/internal/spaceapp"
)

func controlWorkload(layout Layout) *Workload {
	return &Workload{
		Build:     spaceapp.BuildControl,
		Platform:  platform.ProximaLEON3(),
		Layout:    layout,
		Seed:      func(i int) uint64 { return 100 + uint64(i) },
		Input:     ControlInput,
		InputBase: 9000,
	}
}

// hostRun activates and runs activation i on h.
func hostRun(t *testing.T, h *host, i int) platform.RunResult {
	t.Helper()
	if err := h.Activate(uint64(i)); err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// freshRun is activation i of controlWorkload(layout) on a platform
// built for that one run, with no host.
func freshRun(t *testing.T, layout Layout, i int) platform.RunResult {
	t.Helper()
	p, err := spaceapp.BuildControl()
	if err != nil {
		t.Fatal(err)
	}
	plat := platform.New(platform.ProximaLEON3())
	seed := 100 + uint64(i)
	var img *loader.Image
	switch layout {
	case FixedImage:
		img, err = loader.Load(p, loader.DefaultSequentialConfig())
		if err == nil {
			plat.LoadImage(img)
		}
	case DSR:
		var rt *core.Runtime
		if rt, err = core.NewRuntime(p, plat, core.Options{}); err == nil {
			_, err = rt.Reboot(seed)
			img = rt.Image()
		}
	case StaticBuild:
		img, err = core.StaticBuild(p, loader.DefaultSequentialConfig(), plat.Cfg.L2.WaySize(), seed)
		if err == nil {
			plat.LoadImage(img)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := spaceapp.ApplyControlInput(plat.Mem, img, spaceapp.GenControlInput(9000+uint64(i))); err != nil {
		t.Fatal(err)
	}
	res, err := plat.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHostMatchesFreshBoot: for every layout policy, a host's run is
// the run a freshly built platform gives for the same activation, in
// whatever order the host executes its activations.
func TestHostMatchesFreshBoot(t *testing.T) {
	for _, layout := range []Layout{FixedImage, DSR, StaticBuild} {
		h, err := controlWorkload(layout).Host(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{3, 0, 3, 1} {
			got, want := hostRun(t, h, i), freshRun(t, layout, i)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("layout %d activation %d: host run %d cycles, fresh boot %d", layout, i, got.Cycles, want.Cycles)
			}
			if h.Seed() != 100+uint64(i) {
				t.Errorf("layout %d activation %d: seed %d", layout, i, h.Seed())
			}
		}
	}
}

// TestHostGoldenCheck: a completed run whose exit value disagrees with
// the golden model of the activation's input is an error, on both the
// unbudgeted and the budgeted path; a run cut off by its budget is an
// overrun and is not checked.
func TestHostGoldenCheck(t *testing.T) {
	h, err := controlWorkload(FixedImage).Host(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Activate(0); err != nil {
		t.Fatal(err)
	}
	h.in = spaceapp.GenControlInput(1) // not the input the run computes on
	if _, err := h.Run(); err == nil || !strings.Contains(err.Error(), "functional mismatch") {
		t.Fatalf("Run with a mismatching golden input: err = %v", err)
	}
	if err := h.Activate(0); err != nil {
		t.Fatal(err)
	}
	h.in = spaceapp.GenControlInput(1)
	if _, done, err := h.Execute(1 << 40); !done || err == nil {
		t.Fatalf("Execute with a mismatching golden input: done=%v err=%v", done, err)
	}
	if _, done, err := h.Execute(100); done || err != nil {
		t.Fatalf("Execute over budget: done=%v err=%v, want an unchecked overrun", done, err)
	}
}

// TestHostReseedAroundBoot: the reseed hook runs right before and
// right after every reboot, with the activation index.
func TestHostReseedAroundBoot(t *testing.T) {
	for _, layout := range []Layout{FixedImage, DSR} {
		var calls []int
		wl := controlWorkload(layout)
		wl.Reseed = func(_ *platform.Platform, i int) { calls = append(calls, i) }
		h, err := wl.Host(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{5, 2} {
			if err := h.Activate(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if want := []int{5, 5, 2, 2}; !reflect.DeepEqual(calls, want) {
			t.Errorf("layout %d: reseed calls %v, want %v", layout, calls, want)
		}
	}
}

// TestActivateAllocs: the host adds no allocation to a reboot. A
// forked fixed image allocates nothing in steady state, with no input
// or with a scene (filled into the host's own buffer); a DSR
// activation allocates exactly what the runtime's Reboot does.
func TestActivateAllocs(t *testing.T) {
	activateWith := func(wl *Workload) float64 {
		h, err := wl.Host(0)
		if err != nil {
			t.Fatal(err)
		}
		hostRun(t, h, 0)
		return testing.AllocsPerRun(10, func() {
			if err := h.Activate(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	activate := func(layout Layout) float64 {
		wl := controlWorkload(layout)
		wl.Input = NoInput
		return activateWith(wl)
	}
	if allocs := activate(FixedImage); allocs != 0 {
		t.Errorf("fixed-image Activate allocates %.1f times per run", allocs)
	}
	scene := &Workload{
		Build:       spaceapp.BuildProcessing,
		Platform:    platform.ProximaLEON3(),
		Layout:      FixedImage,
		Input:       SceneInput,
		InputBase:   9000,
		LitFraction: spaceapp.LitFraction,
	}
	if allocs := activateWith(scene); allocs != 0 {
		t.Errorf("fixed-image scene Activate allocates %.1f times per run", allocs)
	}

	p, err := spaceapp.BuildControl()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(p, platform.New(platform.ProximaLEON3()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Reboot(100); err != nil {
		t.Fatal(err)
	}
	reboot := testing.AllocsPerRun(10, func() {
		if _, err := rt.Reboot(101); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := activate(DSR); allocs != reboot {
		t.Errorf("DSR Activate allocates %.1f times per run, Reboot alone %.1f", allocs, reboot)
	}
}
