package serve

import (
	"errors"
	"fmt"
	"runtime"
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
