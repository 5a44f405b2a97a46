// Counting machinery for the leakage bounds: per-set occupancy
// counting for the deterministic access-based channel, the bounded
// partition count for the DSR multiset channel, and the execution-count
// calculator for the trace channel.
package leak

import (
	"math"

	"dsr/internal/analysis/cachedom"
)

// maxExec caps execution-count products; beyond it the report is marked
// saturated (the bits stay finite, but the bound is useless).
const maxExec = 1e18

// setCounter bounds the victim lines that may be resident in each
// cache set at the end of a run: the cache footprint of every access
// (the same accounting as the WCET persistence footprint), or any line
// at all once an access with no known address was seen.
type setCounter struct {
	*cachedom.Footprint
	top bool // an unknown-address access: any line may be resident
}

func newSetCounter(dom *cachedom.Dom) *setCounter {
	return &setCounter{Footprint: cachedom.NewFootprint(dom)}
}

// setTop records that an access with no statically known address was
// seen: every set may hold up to associativity victim lines.
func (sc *setCounter) setTop() { sc.top = true }

// perSet returns the bound on distinct victim lines that may map to set s.
func (sc *setCounter) perSet(s int) int {
	if sc.top {
		return sc.Dom.NWays
	}
	return sc.PerSet(s)
}

// vectorBits is the deterministic (set-attributable) access-channel
// capacity: the final occupancy of set s is an integer in
// [0, min(U_s, ways)], so the observation — the per-set occupancy
// vector — takes at most prod_s (min(U_s, ways)+1) values.
func (sc *setCounter) vectorBits() float64 {
	var bits float64
	for s := 0; s < int(sc.Dom.NSets); s++ {
		u := sc.perSet(s)
		if u > sc.Dom.NWays {
			u = sc.Dom.NWays
		}
		bits += math.Log2(float64(u + 1))
	}
	return bits
}

// touchedSets counts the sets with a nonzero per-set bound.
func (sc *setCounter) touchedSets() int {
	if sc.top {
		return int(sc.Dom.NSets)
	}
	n := 0
	for s := 0; s < int(sc.Dom.NSets); s++ {
		if sc.perSet(s) > 0 {
			n++
		}
	}
	return n
}

// totalLines bounds the total number of distinct victim lines,
// placement-independent (the K of the multiset channel), capped at the
// cache capacity.
func (sc *setCounter) totalLines() int {
	cap := int(sc.Dom.NSets) * sc.Dom.NWays
	if sc.top {
		return cap
	}
	n := sc.Lines()
	if n > cap {
		n = cap
	}
	return n
}

// multisetBits bounds the randomised (set-unattributable) access
// channel: the observation is the sorted multiset of per-set
// occupancies, which is a partition of the total resident-line count
// t <= K into at most S parts, each part <= w. The class count is
// sum_{t=0}^{min(K, S*w)} p(t; <=S parts, parts <= w); the bound is its
// log2.
func multisetBits(K, S, w int) float64 {
	if K > S*w {
		K = S * w
	}
	if K < 0 {
		K = 0
	}
	if w == 1 {
		// Partitions into parts of size 1: one class per total count.
		if K > S {
			K = S
		}
		return math.Log2(float64(K + 1))
	}
	maxParts := K
	if maxParts > S {
		maxParts = S
	}
	// dp[p][t]: partitions of t into exactly <= p parts drawn from part
	// sizes considered so far. Iterate part sizes 1..w with unbounded
	// multiplicity: dp_k[p][t] = dp_{k-1}[p][t] + dp_k[p-1][t-k].
	dp := make([][]float64, maxParts+1)
	for p := range dp {
		dp[p] = make([]float64, K+1)
	}
	dp[0][0] = 1
	for k := 1; k <= w; k++ {
		for p := 1; p <= maxParts; p++ {
			row, prev := dp[p], dp[p-1]
			for t := k; t <= K; t++ {
				row[t] += prev[t-k]
			}
		}
	}
	var classes float64
	for t := 0; t <= K; t++ {
		var pt float64
		for p := 0; p <= maxParts; p++ {
			pt += dp[p][t]
		}
		// dp counts by exact part multiset across sizes; summing over p
		// gives partitions of t with parts <= w and <= maxParts parts.
		classes += pt
	}
	return math.Log2(classes)
}
