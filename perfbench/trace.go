package main

import (
	"fmt"
	"sort"
	"time"
)

// tracer records the benchmark's own host-time spans around calls into
// the program's layers. Spans nest: a span's self time is its duration
// minus the part its child spans cover, so the self times of one round
// add up to the round's wall time less an unattributed remainder (the
// benchmark's loop glue). A nil *tracer is the untraced path: every
// method is a no-op, which is what lets one replica serve both as the
// traced run and as an untraced reference.
//
// A tracer is not safe for concurrent use; traced replicas run their
// campaigns at one worker, on the caller's goroutine.
type tracer struct {
	stack []openSpan
	self  map[string]time.Duration
	incl  map[string]time.Duration
}

type openSpan struct {
	layer string
	start time.Time
	child time.Duration
}

func newTracer() *tracer {
	return &tracer{self: map[string]time.Duration{}, incl: map[string]time.Duration{}}
}

// begin opens a span of the given layer.
func (t *tracer) begin(layer string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{layer: layer, start: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(s.start)
	t.self[s.layer] += d - s.child
	t.incl[s.layer] += d
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// take returns the self and inclusive times recorded since the last
// take and starts afresh; every span must be closed.
func (t *tracer) take() (self, incl map[string]time.Duration) {
	if len(t.stack) != 0 {
		panic(fmt.Sprintf("perfbench: %d spans still open", len(t.stack)))
	}
	self, incl = t.self, t.incl
	t.self, t.incl = map[string]time.Duration{}, map[string]time.Duration{}
	return self, incl
}

// roundTrace is one traced round: its wall time and per-layer times.
type roundTrace struct {
	wall time.Duration
	self map[string]time.Duration
	incl map[string]time.Duration
}

// unattributed is the part of the round's wall time no span covers.
func (r roundTrace) unattributed() time.Duration {
	d := r.wall
	for _, s := range r.self {
		d -= s
	}
	return d
}

// medianSelf is the median over rounds of a layer's self time, in
// seconds.
func medianSelf(rounds []roundTrace, layer string) float64 {
	return medianOf(rounds, func(r roundTrace) float64 { return r.self[layer].Seconds() })
}

// medianIncl is the median over rounds of a layer's inclusive time, in
// seconds.
func medianIncl(rounds []roundTrace, layer string) float64 {
	return medianOf(rounds, func(r roundTrace) float64 { return r.incl[layer].Seconds() })
}

func medianOf(rounds []roundTrace, f func(roundTrace) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// unattributedBound is the share of traced wall time the span cover
// may leave unattributed before the accounting flags it.
const unattributedBound = 0.05

// accounting prints the "where the wall time goes" table: every
// layer's median self time per round and its share of the median
// traced round, the unattributed remainder, and the tracing overhead
// against the median untraced replay of the same round at one worker.
func (b *bench) accounting(rounds []roundTrace, untraced time.Duration) {
	layers := map[string]bool{}
	for _, r := range rounds {
		for l := range r.self {
			layers[l] = true
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	selfs := map[string]float64{}
	for _, l := range names {
		selfs[l] = medianSelf(rounds, l)
	}
	sort.Slice(names, func(i, j int) bool {
		if selfs[names[i]] != selfs[names[j]] {
			return selfs[names[i]] > selfs[names[j]]
		}
		return names[i] < names[j]
	})
	wall := medianOf(rounds, func(r roundTrace) float64 { return r.wall.Seconds() })
	rem := medianOf(rounds, func(r roundTrace) float64 { return r.unattributed().Seconds() })
	b.note("# where the wall time goes (traced, 1 worker, median of %d rounds)", len(rounds))
	b.note("# %-26s %12s %8s", "layer", "self_s", "share")
	for _, l := range names {
		b.note("# %-26s %12.6f %7.2f%%", l, selfs[l], 100*selfs[l]/wall)
	}
	b.note("# %-26s %12.6f %7.2f%%", "(unattributed)", rem, 100*rem/wall)
	b.note("# %-26s %12.6f", "traced round wall", wall)
	b.note("# %-26s %12.6f", "untraced round wall", untraced.Seconds())
	b.note("# %-26s %12.6f %7.2f%%", "tracing overhead", wall-untraced.Seconds(),
		100*(wall-untraced.Seconds())/untraced.Seconds())
	if rem/wall > unattributedBound {
		b.note("# WARNING: unattributed remainder %.2f%% exceeds the %.0f%% bound\n",
			100*rem/wall, 100*unattributedBound)
	}
}
