package experiments

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dsr/internal/analysis/wcet"
	"dsr/internal/campaign"
	"dsr/internal/campaign/determtest"
	"dsr/internal/mbpta"
	"dsr/internal/telemetry"
)

// TestCampaignCancelMidFlight is the cancellation contract at the
// experiments level: cancelling a campaign mid-flight releases the
// workers promptly, leaves every merged surface (telemetry registry +
// events, MBPTA stream, progress) exactly as an uncancelled campaign
// would have them at that merged prefix, and a resubmission with the
// same seed is byte-identical to a campaign that was never cancelled.
func TestCampaignCancelMidFlight(t *testing.T) {
	// runs must be large enough that the workers still hold unclaimed
	// work when the cancel fires at the cancelAt-th merge — a campaign
	// this size is a couple of seconds of simulated work, far more than
	// the merge goroutine needs to reach run 7.
	const runs = 400
	const cancelAt = 7

	// Reference: the uncancelled campaign.
	ref := runCampaign(t, seriesRun{"DSR", runs, RunDSR}, 8)

	// Cancelled campaign: fire the interrupt after cancelAt merges.
	camp := telemetry.NewCampaign(0)
	stream := mbpta.NewStream(mbpta.Options{BlockSize: 4})
	interrupt := make(chan struct{})
	cfg := DefaultConfig()
	cfg.Runs = runs
	cfg.Workers = 8
	cfg.Attribution = true
	cfg.Telemetry = camp
	cfg.Stream = stream
	cfg.Interrupt = interrupt
	var progress []int
	cfg.Progress = func(series string, done, total int) {
		progress = append(progress, done)
		if done == cancelAt {
			close(interrupt)
		}
	}

	start := time.Now()
	s, err := RunDSR(cfg)
	released := time.Since(start)
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("cancelled campaign returned %v, want campaign.ErrInterrupted", err)
	}
	if s != nil {
		t.Fatal("cancelled campaign returned a series")
	}
	// "Promptly": the engine must not run the campaign to completion
	// after the cancel. The merged prefix is at least the cancel point
	// (the canonical merge had reached it) and short of the total.
	merged := stream.N()
	if merged < cancelAt || merged >= runs {
		t.Fatalf("cancelled campaign merged %d runs (cancelled at %d of %d)", merged, cancelAt, runs)
	}
	if released > 30*time.Second {
		t.Fatalf("cancelled campaign took %v to release workers", released)
	}

	// Merge consistency: everything merged before the stop is exactly
	// the uncancelled campaign's canonical prefix.
	if !reflect.DeepEqual(stream.Times(), ref.stream[:merged]) {
		t.Errorf("cancelled stream is not a prefix of the uncancelled stream:\n  cancelled %v\n  reference %v",
			stream.Times(), ref.stream[:merged])
	}
	determtest.CheckCanonicalProgress(t, progress, merged)

	// Registry merge consistency: the run counter agrees with the
	// merged prefix — no partial or duplicated bookkeeping from the
	// drained workers ever reaches the registry.
	runsTotal := camp.Registry.Counter("dsr_runs_total", telemetry.Labels{"series": "Sw Rand"}).Value()
	if int(runsTotal) != merged {
		t.Errorf("registry dsr_runs_total = %d, merged = %d", runsTotal, merged)
	}

	// Resubmission with the same seed: byte-identical to the never-
	// cancelled reference on every surface.
	resub := runCampaign(t, seriesRun{"DSR", runs, RunDSR}, 8)
	determtest.Check(t, "resubmit after cancel vs uncancelled", ref.output(), resub.output())

	// The leakage campaign honours the same contract; its merged
	// surface is the progress feed.
	checkLeakCancel(t, runs, cancelAt)
}

// checkLeakCancel cancels a RunLeak campaign after cancelAt merges and
// checks it stops with campaign.ErrInterrupted after merging a
// canonical prefix of the uncancelled campaign, and that a resubmission
// is identical to the uncancelled campaign.
func checkLeakCancel(t *testing.T, runs, cancelAt int) {
	t.Helper()
	type step struct {
		series      string
		done, total int
	}
	run := func(interrupt chan struct{}) (*LeakSeries, []step, error) {
		cfg := DefaultConfig()
		cfg.Runs = runs
		cfg.Workers = 8
		var steps []step
		cfg.Progress = func(series string, done, total int) {
			steps = append(steps, step{series, done, total})
			if interrupt != nil && done == cancelAt {
				close(interrupt)
			}
		}
		if interrupt != nil {
			cfg.Interrupt = interrupt
		}
		s, err := RunLeak(cfg, wcet.ModeDSREager)
		return s, steps, err
	}
	ref, refSteps, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, steps, err := run(make(chan struct{}))
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("cancelled RunLeak returned %v, want campaign.ErrInterrupted", err)
	}
	if s != nil {
		t.Fatal("cancelled RunLeak returned a series")
	}
	merged := len(steps)
	if merged < cancelAt || merged >= runs {
		t.Fatalf("cancelled RunLeak merged %d runs (cancelled at %d of %d)", merged, cancelAt, runs)
	}
	if !reflect.DeepEqual(steps, refSteps[:merged]) {
		t.Errorf("cancelled RunLeak progress is not a prefix of the uncancelled one:\n  cancelled %v\n  reference %v",
			steps, refSteps[:merged])
	}
	resub, _, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resub, ref) {
		t.Error("RunLeak resubmitted after cancel differs from the uncancelled campaign")
	}
}
