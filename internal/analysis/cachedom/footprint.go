package cachedom

import "dsr/internal/mem"

// Footprint accumulates a per-set cache working set, split into
// exactly-placed lines (deterministic layout) and relatively-counted
// lines (objects whose base is unknown but 8-byte aligned: stack frames
// in every mode, all objects under DSR). k consecutive lines fall into
// k consecutive sets, so an unknown-base object of k lines adds at most
// ceil(k/sets) lines to every set. The WCET analyzer's loop-persistence
// test and the leakage analyzer's victim-line count both build on it.
type Footprint struct {
	Dom      *Dom
	exact    []map[mem.Addr]bool
	rel      []int
	relLines int
}

// NewFootprint returns an empty footprint over dom's geometry.
func NewFootprint(dom *Dom) *Footprint {
	return &Footprint{Dom: dom, exact: make([]map[mem.Addr]bool, dom.NSets), rel: make([]int, dom.NSets)}
}

// AddRange adds the concretely-placed lines covering [lo, hi] (byte
// addresses, inclusive).
func (fp *Footprint) AddRange(lo, hi mem.Addr) {
	for l := fp.Dom.LineOf(lo); l <= fp.Dom.LineOf(hi); l++ {
		s := fp.Dom.SetOf(l)
		if fp.exact[s] == nil {
			fp.exact[s] = map[mem.Addr]bool{}
		}
		fp.exact[s][l] = true
	}
}

// AddRelative adds an unknown-base object spanning at most k lines.
func (fp *Footprint) AddRelative(k int) {
	per := (k + int(fp.Dom.NSets) - 1) / int(fp.Dom.NSets)
	for s := range fp.rel {
		fp.rel[s] += per
	}
	fp.relLines += k
}

// PerSet bounds the distinct footprint lines that may map to set s.
func (fp *Footprint) PerSet(s int) int { return len(fp.exact[s]) + fp.rel[s] }

// Fits reports whether every set's footprint is within the cache's
// associativity.
func (fp *Footprint) Fits() bool {
	for s := range fp.rel {
		if fp.PerSet(s) > fp.Dom.NWays {
			return false
		}
	}
	return true
}

// Lines returns the total distinct-line count (the one-time miss
// charge of the working set).
func (fp *Footprint) Lines() int {
	n := fp.relLines
	for s := range fp.exact {
		n += len(fp.exact[s])
	}
	return n
}

// LineSpan bounds the distinct cache lines an unknown-base (8-byte
// aligned) object of size bytes can span.
func LineSpan(size int64, lineSz mem.Addr) int {
	if size <= 0 {
		return 1
	}
	return int((size-1)/int64(lineSz)) + 2
}
