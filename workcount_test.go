// The host-work ledger: the repository's performance gate. Three
// workloads — the paper campaign, one E9 grid cell and one attributed
// dsrserve job — run with a span tracer attached, and the host work
// their runs did (telemetry.Work: interpreter steps, fetch-window
// refills, TLB scans, cache slow-path accesses, reboots, relocated
// bytes, plus the job's checkpoint bytes) must equal
// testdata/workcount.json exactly, at one worker and at two. The
// counts are functions of (spec, seed) alone, so unlike a timer they
// do not drift with the host: a change that moves a campaign off a
// fast path — the interpreter instead of the engine, a cache memo that
// stops hitting — changes a count exactly.
//
// A mismatch is a diff the change must explain, as with
// golden_cycles.json. When a change moves host work on purpose,
// regenerate with:
//
//	go test . -run TestWorkCount -update-workcount
package dsr_test

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsr/internal/experiments"
	"dsr/internal/serve"
	"dsr/internal/telemetry"
)

var updateWorkCount = flag.Bool("update-workcount", false,
	"rewrite testdata/workcount.json from the current binary")

const workCountPath = "testdata/workcount.json"

// Ledger sizes: small enough for every `go test`, large enough that each
// workload crosses its reboot, relocation, fork and checkpoint paths.
const (
	ledgerPaperRuns = 40
	ledgerE9Frames  = 2
	ledgerServeRuns = 60
)

// workCount is one workload's ledger entry.
type workCount struct {
	telemetry.Work
	// CheckpointBytes is dsrserve_checkpoint_bytes_total for the job.
	CheckpointBytes uint64 `json:"checkpoint_bytes,omitempty"`
}

func ledgerConfig(runs, workers int, tr *telemetry.Tracer) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Runs = runs
	cfg.Workers = workers
	cfg.Tracer = tr
	return cfg
}

// paperWork runs the paper's No Rand + Sw Rand campaign pair.
func paperWork(t *testing.T, workers int) workCount {
	tr := telemetry.NewTracer()
	cfg := ledgerConfig(ledgerPaperRuns, workers, tr)
	if _, err := experiments.RunBaseline(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.RunDSR(cfg); err != nil {
		t.Fatal(err)
	}
	return workCount{Work: tr.Work()}
}

// e9Work runs the Layout+Sched grid cell: DSR control and fixed-image
// processing partitions under the certified randomized executive.
func e9Work(t *testing.T, workers int) workCount {
	tr := telemetry.NewTracer()
	if _, err := experiments.RunE9Cell(ledgerConfig(ledgerE9Frames, workers, tr),
		experiments.E9Cell{LayoutRand: true, SchedRand: true}); err != nil {
		t.Fatal(err)
	}
	return workCount{Work: tr.Work()}
}

// serveWork submits one attributed uoa.s job to an in-process dsrserve
// and reads its ledger from the job status and the registry.
func serveWork(t *testing.T, workers int) workCount {
	src, err := os.ReadFile(filepath.Join("internal", "asm", "testdata", "uoa.s"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{DataDir: t.TempDir(), Executors: 1, CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &serve.Client{Base: ts.URL}
	const id = "ledger"
	if _, err := cl.Submit(serve.Spec{ID: id, Source: string(src), Runs: ledgerServeRuns,
		Seed: 7, Workers: workers, Attribution: true}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	ckpt := s.Registry().Counter("dsrserve_checkpoint_bytes_total", telemetry.Labels{"job": id}).Value()
	return workCount{Work: st.Work, CheckpointBytes: ckpt}
}

func TestWorkCount(t *testing.T) {
	workloads := []struct {
		name string
		runs uint64 // measured runs the workload must report
		run  func(*testing.T, int) workCount
	}{
		{"paper_campaign", 2 * ledgerPaperRuns, paperWork},
		// A frame activates the control partition once and the
		// 100 ms processing partition ten times.
		{"e9_cell", 11 * ledgerE9Frames, e9Work},
		{"serve_job", ledgerServeRuns, serveWork},
	}
	got := map[string]workCount{}
	for _, wl := range workloads {
		w1 := wl.run(t, 1)
		if w2 := wl.run(t, 2); w2 != w1 {
			t.Errorf("%s: host work differs across worker counts:\nW1 %+v\nW2 %+v", wl.name, w1, w2)
		}
		if w1.Runs != wl.runs {
			t.Errorf("%s: ledger holds %d runs, want %d", wl.name, w1.Runs, wl.runs)
		}
		got[wl.name] = w1
	}
	// The paper campaign runs entirely on the threaded-code engine.
	if st := got["paper_campaign"].Steps; st != 0 {
		t.Errorf("paper_campaign: %d interpreter steps, want 0 (engine only)", st)
	}

	if *updateWorkCount {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workCountPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", workCountPath)
		return
	}
	b, err := os.ReadFile(workCountPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-workcount)", err)
	}
	var want map[string]workCount
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if g, w := got[wl.name], want[wl.name]; g != w {
			t.Errorf("%s: host work moved:\ngot  %+v\nwant %+v", wl.name, g, w)
		}
	}
}
