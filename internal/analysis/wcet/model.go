// Exported front-end model: everything the analyzer derives about a
// program before costing — CFGs, loop bounds, access plans, must/may
// classification, call edges, reachability and the deterministic
// layout — packaged for sibling analyzers. The leakage analyzer
// (internal/analysis/leak) consumes this instead of re-implementing the
// pipeline, which keeps its counting bounds wired to exactly the
// artifacts the WCET bound is computed from.
package wcet

import (
	"fmt"

	"dsr/internal/analysis"
	"dsr/internal/analysis/cachedom"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// StackSymPrefix marks the pseudo-symbol DataAccess.Sym uses for an
// access into a function's stack frame: StackSymPrefix + function name.
const StackSymPrefix = "\x00stack:"

// DataAccess is one instruction's data access in object coordinates
// (the exported view of the address analysis).
type DataAccess struct {
	Valid  bool   // address statically known
	Sym    string // object name; "" = absolute; StackSymPrefix+f = f's frame
	Lo, Hi int64  // access start offset range
	Size   int    // bytes
	Load   bool
	Store  bool
}

// LoopRegion is one natural loop with its resolved bound.
type LoopRegion struct {
	Header int          // header block ID
	Blocks map[int]bool // block IDs in the loop (header included)
	Parent int          // innermost enclosing loop index, -1 for top level
	Depth  int          // 1 = outermost
	Bound  int          // max iterations per entry; 0 = unresolved
}

// FuncModel bundles the front end's per-function artifacts.
type FuncModel struct {
	Fn        *prog.Function
	G         *analysis.CFG
	Loops     []LoopRegion
	Innermost []int // innermost loop index per block, -1 for none
	Plan      *cachedom.AccessPlan
	Class     *cachedom.Classification
	Callee    []string // resolved callee name per instruction ("" = none)
	Base      mem.Addr // deterministic code base (0 in DSR modes)
	Acc       []DataAccess
}

// Model is the analyzer front end's view of a program under one mode.
type Model struct {
	Prog     *prog.Program
	Mode     Mode
	Platform *platform.Config
	IL1, DL1 *cachedom.Dom

	// Layout is the deterministic placement (nil in DSR modes).
	Layout loader.Placement
	// Funcs maps function name to its artifacts; Reach marks functions
	// reachable from the entry.
	Funcs map[string]*FuncModel
	Reach map[string]bool

	// WindowSafe: no register-window spill/fill traps can occur.
	// UseMustI/UseMustD: the must/may classification is meaningful for
	// the respective cache (deterministic layout, modulo+LRU).
	WindowSafe         bool
	UseMustI, UseMustD bool
	// Stack is the stack analysis result (max excursion, spill bound).
	Stack *analysis.StackBound

	// Report carries the front end's diagnostics, loop table and
	// window-safety flags. BoundCycles is not populated.
	Report *Report
}

// BuildModel runs the analysis front end on p and returns the model, or
// nil with the diagnostic-bearing report when the front end fails (an
// unbounded loop, recursion, a validation error).
func BuildModel(p *prog.Program, cfg Config) (*Model, *Report) {
	a, sb, ok := prepare(p, cfg)
	if !ok {
		return nil, a.rep
	}
	m := &Model{
		Prog: p, Mode: a.mode, Platform: a.pf,
		IL1: a.il1, DL1: a.dl1,
		Layout:     a.layout,
		Funcs:      make(map[string]*FuncModel, len(a.fns)),
		Reach:      a.reach,
		WindowSafe: a.windowSafe,
		UseMustI:   a.useMustI, UseMustD: a.useMustD,
		Stack:  sb,
		Report: a.rep,
	}
	for name, fi := range a.fns {
		fm := &FuncModel{
			Fn: fi.fn, G: fi.g,
			Innermost: fi.nest.innermost,
			Plan:      fi.plan, Class: fi.cls,
			Callee: fi.callee, Base: fi.base,
			Acc: make([]DataAccess, len(fi.acc)),
		}
		for _, l := range fi.nest.loops {
			fm.Loops = append(fm.Loops, LoopRegion{
				Header: l.header, Blocks: l.blocks,
				Parent: l.parent, Depth: l.depth, Bound: l.bound,
			})
		}
		for i, acc := range fi.acc {
			fm.Acc[i] = DataAccess{
				Valid: acc.valid, Sym: acc.sym,
				Lo: acc.lo, Hi: acc.hi, Size: acc.size,
				Load: acc.load, Store: acc.store,
			}
		}
		m.Funcs[name] = fm
	}
	return m, a.rep
}

// BuildModelMode is BuildModel with exactly the wiring AnalyzeMode uses
// for the given mode: the DSR modes model the core.Transform output with
// the canonical dispatch resolver and the runtime's default stack-offset
// bound. See AnalyzeMode for the contract.
func BuildModelMode(p *prog.Program, mode Mode, base Config) (*Model, *Report, error) {
	base.Mode = mode
	if mode == ModeDet {
		m, rep := BuildModel(p, base)
		return m, rep, nil
	}
	tp, meta, _, err := core.Transform(p)
	if err != nil {
		return nil, nil, fmt.Errorf("wcet: DSR transform failed: %w", err)
	}
	base.Lines = nil
	base.Resolve = analysis.ResolveDispatch(meta.TransformInfo())
	if base.Platform == nil {
		def := platform.ProximaLEON3()
		base.Platform = &def
	}
	if base.StackOffsetBound == 0 {
		base.StackOffsetBound = base.Platform.L2.WaySize()
	}
	m, rep := BuildModel(tp, base)
	return m, rep, nil
}
