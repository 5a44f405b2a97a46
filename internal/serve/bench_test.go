package serve

import (
	"testing"
)

// BenchmarkServeSubmitLatency measures the submit path — JSON decode,
// spec validation (assemble + DSR transform verification), job-dir
// persistence and enqueue — with the executor parked on a long job so
// no campaign work pollutes the numbers. This is the daemon's
// user-facing latency floor.
func BenchmarkServeSubmitLatency(b *testing.B) {
	s, ts, cl := startServer(b, b.TempDir(), Config{
		Executors: 1, QueueCap: b.N + 8, CheckpointEvery: 1 << 30,
		Logf: func(string, ...any) {},
	})
	// Hours of simulated work: the parked job never finishes while the
	// benchmark runs.
	long := testSpec(b, "long", 40_000_000, 1, 42)
	if _, err := cl.Submit(long); err != nil {
		b.Fatalf("submit long: %v", err)
	}
	waitProgress(b, cl, "long", 1)
	src := testSource(b)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{Source: src, Runs: 600, Seed: uint64(i + 1), Workers: 1}
		if _, err := cl.Submit(spec); err != nil {
			b.Fatalf("submit %d: %v", i, err)
		}
	}
	b.StopTimer()
	s.Kill()
	ts.Close()
}
