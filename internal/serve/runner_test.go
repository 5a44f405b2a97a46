package serve

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dsr/internal/campaign"
)

// TestRunHugeRunsAllocation: the run count of a spec is bounded only
// from below, so a huge one must not size an allocation. Interrupted
// before its first run, a 2^30-run job allocates what any job does.
func TestRunHugeRunsAllocation(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	for _, workers := range []int{1, 2} {
		spec := testSpec(t, "huge", 1<<30, workers, 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(spec, nil, Hooks{Interrupt: interrupt})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, campaign.ErrInterrupted) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, campaign.ErrInterrupted)
		}
		delta := after.TotalAlloc - before.TotalAlloc
		t.Logf("workers=%d: %s allocated", workers, mb(delta))
		if delta > 8<<20 {
			t.Fatalf("workers=%d: interrupted 2^30-run job allocated %s", workers, mb(delta))
		}
	}
}

func mb(n uint64) string { return fmt.Sprintf("%.1f MB", float64(n)/(1<<20)) }

// TestRunNegativeRuns: `dsrrun -dsr -runs -1` reaches Run without
// Spec.Validate; Run refuses a negative run count before sizing
// anything by it, and says so.
func TestRunNegativeRuns(t *testing.T) {
	_, err := Run(testSpec(t, "neg", -1, 1, 1), nil, Hooks{})
	if err == nil || !strings.Contains(err.Error(), "negative run count") {
		t.Fatalf("Run(runs=-1) = %v, want a negative run count error", err)
	}
}
