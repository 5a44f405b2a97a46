package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinySizes shrink every workload to a smoke run.
var tinySizes = sizes{paperRuns: 60, gridFrames: 2, serveRuns: 60, specPool: 2}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, root string) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// smoke runs one workload at tiny size and returns its result and
// digest.
func smoke(t *testing.T, name string, workers int, trace bool) (*result, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{seed: 7, workers: workers, size: tinySizes, root: root}
	res, digest, err := b.run(name, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (workers=%d, trace=%v): correct=%v attempted=%d failed=%d: %v",
			name, workers, trace, res.Correct, res.Attempted, res.Failed, b.problems)
	}
	return res, digest
}

// TestSmoke runs every workload untraced and traced at tiny size: each
// emits exactly the metrics BENCHMARK.json declares, with their units,
// and the digest of the simulated outputs is the same at every worker
// count and in the traced replay.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := declared(t, root)
	check := func(t *testing.T, got map[string]metric, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			m, ok := got[name]
			if !ok {
				t.Errorf("metric %s not emitted", name)
			} else if m.Unit != unit {
				t.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("metric %s emitted but not declared", name)
			}
		}
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			r2, d2 := smoke(t, name, 2, false)
			check(t, r2.Metrics, e2e)
			for k, m := range r2.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
			_, d3 := smoke(t, name, 3, false)
			rt, dt := smoke(t, name, 1, true)
			check(t, rt.Metrics, layer)
			if d2 != d3 || d2 != dt {
				t.Errorf("digest differs: workers=2 %s, workers=3 %s, traced %s", d2, d3, dt)
			}
		})
	}
}
