// Package wcet is a sound static worst-case execution time analyzer for
// the simulator's programs, closing the loop the paper leaves open: the
// MBPTA/pWCET machinery (internal/mbpta) estimates probabilistic bounds
// from randomised *measurements*, while this package derives a hard
// upper bound from the program text and the platform configuration
// alone, against which every simulated run can be cross-checked
// (simulated cycles ≤ static bound, enforced in tests and CI).
//
// The pipeline:
//
//  1. loop bounds — counted-loop inference over the CFG/dominator
//     machinery, falling back to `dsr:loop-bound N` annotations, with a
//     hard diagnostic when a loop has neither (loops.go);
//  2. symbolic register dataflow for addresses and induction ranges
//     (value.go);
//  3. Ferdinand-style must/may abstract cache analysis for the L1s
//     under a deterministic layout, classifying always-hit /
//     always-miss / not-classified (internal/analysis/cachedom, the
//     domain shared with the leakage analyzer), plus a loop
//     persistence analysis that works in both deterministic and
//     DSR-randomised modes (cost.go);
//  4. an IPET-style bound: collapse loop nests by their bounds, longest
//     path over the acyclic condensation, instructions costed from the
//     timing table shared with the simulator, memory stalls from the
//     platform's cache/TLB/bus/DRAM configuration (cost.go);
//  5. interprocedural composition over the call graph,
//     context-insensitive, recursion rejected with a diagnostic.
//
// Analysis modes mirror the paper's build variants: ModeDet analyses
// the unmodified deterministically-laid-out program; ModeDSREager and
// ModeDSRLazy analyse the DSR-transformed program over *all feasible
// randomised placements*, which forfeits the exact-address cache
// domains (the paper's observation that static analysis of randomised
// software degrades) but keeps placement-independent bounds sound.
//
// Analyze never panics on malformed input: every failure mode —
// unbounded loop, recursion, unresolved indirect call, irreducible
// control flow — is an Error diagnostic with Bounded=false.
package wcet

import (
	"encoding/json"
	"fmt"

	"dsr/internal/analysis"
	"dsr/internal/analysis/cachedom"
	"dsr/internal/cache"
	"dsr/internal/isa"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/timing"
)

// Mode selects the layout model the bound must cover.
type Mode int

const (
	// ModeDet analyses a deterministic sequential layout (the paper's
	// COTS baseline): exact addresses, full must/may cache analysis.
	ModeDet Mode = iota
	// ModeDSREager analyses a DSR-transformed program under eager
	// relocation: every function and data object may land anywhere
	// (8-byte aligned), so the bound joins over all feasible placements.
	ModeDSREager
	// ModeDSRLazy is ModeDSREager plus lazy relocation: objects may move
	// *during* the run, which additionally forfeits loop persistence;
	// Config.RelocBound charges the relocation machinery itself.
	ModeDSRLazy
)

func (m Mode) String() string {
	switch m {
	case ModeDet:
		return "det"
	case ModeDSREager:
		return "dsr-eager"
	case ModeDSRLazy:
		return "dsr-lazy"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String: det, dsr-eager or dsr-lazy.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeDet, ModeDSREager, ModeDSRLazy} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want det, dsr-eager or dsr-lazy)", s)
}

// Config parameterises the analysis.
type Config struct {
	// Platform supplies cache/TLB/bus/DRAM geometry and latencies.
	// Nil selects platform.ProximaLEON3().
	Platform *platform.Config
	// Timing overrides the per-instruction timing table; nil uses the
	// platform CPU's embedded table (the one the simulator charges).
	Timing *timing.Model
	// Mode selects the layout model (see Mode).
	Mode Mode
	// Layout is the deterministic layout analysed in ModeDet; the zero
	// value selects loader.DefaultSequentialConfig().
	Layout loader.SequentialConfig
	// Resolve attributes indirect calls (analysis.ResolveDispatch for
	// DSR-transformed programs). Nil leaves CallR unresolved → Error.
	Resolve analysis.CallResolver
	// Lines maps (function, instruction) to source lines for
	// diagnostics and the loop report (asm.SourceInfo). May be nil.
	Lines analysis.LineResolver
	// StackOffsetBound is the inclusive upper bound on the per-frame
	// random stack offset (DSR modes); forwarded to the stack analysis.
	StackOffsetBound int
	// BusContention is an optional worst-case per-bus-transaction
	// interference delay (bus.Contention.MaxDelay under worst-case
	// contention mode).
	BusContention mem.Cycles
	// RelocBound is the caller-supplied bound on the lazy-relocation
	// machinery, charged once per function in ModeDSRLazy.
	RelocBound mem.Cycles
}

// LoopBound is one resolved loop bound in the report.
type LoopBound struct {
	Fn     string `json:"fn"`
	Head   int    `json:"head"` // instruction index of the loop header
	Line   int    `json:"line,omitempty"`
	Bound  int    `json:"bound"`
	Source string `json:"source"` // "inferred" | "annotated"
	Depth  int    `json:"depth"`
}

// Report is the analysis result.
type Report struct {
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Mode    string `json:"mode"`

	// Bounded is true iff the analysis produced a finite sound bound.
	Bounded bool `json:"bounded"`
	// BoundCycles is the WCET bound in cycles (valid when Bounded).
	BoundCycles mem.Cycles `json:"bound_cycles"`
	// Saturated marks a bound that hit the arithmetic ceiling — still
	// sound as stated, but useless; treat as a diagnostic.
	Saturated bool `json:"saturated,omitempty"`

	// WindowSafe: the stack analysis proved no register-window
	// spill/fill traps can occur.
	WindowSafe bool `json:"window_safe"`
	// ITLBPages/DTLBPages are the page working-set bounds; TLBCycles is
	// the one-time walk charge included in the bound when the working
	// set fits the TLB.
	ITLBPages int        `json:"itlb_pages"`
	DTLBPages int        `json:"dtlb_pages"`
	TLBCycles mem.Cycles `json:"tlb_cycles"`

	// Cache classification tallies (deterministic mode; DSR modes
	// classify nothing).
	AlwaysHit     int `json:"always_hit"`
	AlwaysMiss    int `json:"always_miss"`
	NotClassified int `json:"not_classified"`

	// Loops lists every natural loop with its resolved bound.
	Loops []LoopBound `json:"loops"`
	// FuncCycles bounds one standalone execution of each function.
	FuncCycles map[string]mem.Cycles `json:"func_cycles,omitempty"`

	Diags []analysis.Diagnostic `json:"diags,omitempty"`
}

// JSON renders the report as indented JSON (the `dsrwcet -json` and
// `dsrlint -json` wcet section; field names are a stable contract).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// HasErrors reports whether any Error-severity diagnostic was emitted.
func (r *Report) HasErrors() bool {
	for i := range r.Diags {
		if r.Diags[i].Sev == analysis.Error {
			return true
		}
	}
	return false
}

// dataAcc is one instruction's data access in object coordinates.
type dataAcc struct {
	valid  bool   // address statically known
	sym    string // object name; "" = absolute; "\x00stack:f" = f's frame
	lo, hi int64  // access start offset range
	size   int    // bytes
	load   bool
	store  bool
}

// fnInfo bundles all per-function analysis artifacts.
type fnInfo struct {
	fn     *prog.Function
	g      *cfgView
	nest   *loopNest
	df     *dataflow
	acc    []dataAcc
	plan   *cachedom.AccessPlan
	cls    *cachedom.Classification
	callee []string // resolved callee name per instruction ("" = none)
	base   mem.Addr // deterministic code base (0 in DSR modes)
}

// analyzer is the in-flight analysis state.
type analyzer struct {
	p   *prog.Program
	cfg *Config
	pf  *platform.Config
	tm  timing.Model
	lat latModel

	mode       Mode
	layout     loader.Placement // nil in DSR modes
	il1, dl1   *cachedom.Dom
	useMustI   bool
	useMustD   bool
	hotIOK     bool
	hotDOK     bool
	windowSafe bool

	fns    map[string]*fnInfo
	reach  map[string]bool // functions reachable from the entry
	memo   map[costKey]costRes
	fit    map[fitKey]fitRes
	onPath map[string]bool
	rep    *Report
}

// computeReach marks every function reachable from the entry through
// resolved call edges. Unreachable functions are pruned from the
// analysis: their loops need no bounds, they are not classified and not
// costed — dead code must not be able to veto a live program's bound.
func (a *analyzer) computeReach() {
	a.reach = map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if a.reach[name] {
			return
		}
		fi, ok := a.fns[name]
		if !ok {
			return
		}
		a.reach[name] = true
		for _, c := range fi.callee {
			if c != "" {
				walk(c)
			}
		}
	}
	walk(a.p.Entry)
	for _, f := range a.p.Functions {
		if !a.reach[f.Name] {
			a.diag(analysis.Info, f.Name, 0,
				"function %q is unreachable from entry %q: pruned from the WCET analysis", f.Name, a.p.Entry)
		}
	}
}

func (a *analyzer) det() bool { return a.mode == ModeDet }

// diag appends a diagnostic, resolving a source line when possible.
func (a *analyzer) diag(sev analysis.Severity, fn string, idx int, format string, args ...interface{}) {
	d := analysis.Diagnostic{
		Pass: "wcet", Sev: sev, Fn: fn, Index: idx,
		Msg: fmt.Sprintf(format, args...),
	}
	if a.cfg.Lines != nil {
		if ln, ok := a.cfg.Lines(fn, idx); ok {
			d.Line = ln
		}
	}
	a.rep.Diags = append(a.rep.Diags, d)
}

// Analyze computes a static WCET bound for p under cfg. It never
// panics: analysis failures are Error diagnostics with Bounded=false.
func Analyze(p *prog.Program, cfg Config) *Report {
	a, sb, ok := prepare(p, cfg)
	rep := a.rep
	if !ok {
		return rep
	}

	// TLB page budgets, then the latency model.
	itlbEach, dtlbEach := a.tlbBudget(sb)
	a.lat = deriveLat(a.pf, a.tm, cfg.BusContention, itlbEach, dtlbEach)
	if !itlbEach {
		rep.TLBCycles += a.satMul(rep.ITLBPages, a.lat.walkI)
	}
	if !dtlbEach {
		rep.TLBCycles += a.satMul(rep.DTLBPages, a.lat.walkD)
	}

	// The bound.
	cyc, ok := a.costFn(p.Entry, false, false)
	if !ok {
		return rep
	}
	bound := a.satAdd(cyc, rep.TLBCycles)
	if a.mode == ModeDSRLazy && cfg.RelocBound > 0 {
		bound = a.satAdd(bound, a.satMul(len(p.Functions), cfg.RelocBound))
	}
	rep.BoundCycles = bound
	rep.Bounded = !rep.HasErrors()

	for _, f := range p.Functions {
		if !a.reach[f.Name] {
			continue
		}
		if c, ok := a.costFn(f.Name, false, false); ok {
			rep.FuncCycles[f.Name] = c
		}
	}
	return rep
}

// prepare runs the analysis front end shared by Analyze and BuildModel:
// validation, stack analysis, layout, domain gates, per-function CFGs
// and dataflow, reachability, loop bounds, access plans and must/may
// classification. ok=false means a hard failure already recorded in
// a.rep.Diags.
func prepare(p *prog.Program, cfg Config) (a *analyzer, sb *analysis.StackBound, ok bool) {
	rep := &Report{Program: p.Name, Entry: p.Entry, Mode: cfg.Mode.String(), FuncCycles: map[string]mem.Cycles{}}
	pf := cfg.Platform
	if pf == nil {
		def := platform.ProximaLEON3()
		pf = &def
	}
	tm := pf.CPU.Model
	if cfg.Timing != nil {
		tm = *cfg.Timing
	}
	a = &analyzer{
		p: p, cfg: &cfg, pf: pf, tm: tm, mode: cfg.Mode,
		il1: cachedom.New(pf.IL1), dl1: cachedom.New(pf.DL1),
		fns:  map[string]*fnInfo{},
		memo: map[costKey]costRes{}, fit: map[fitKey]fitRes{},
		onPath: map[string]bool{},
		rep:    rep,
	}

	if err := p.Validate(); err != nil {
		a.diag(analysis.Error, "", 0, "program does not validate: %v", err)
		return a, nil, false
	}

	// Stack analysis: recursion detection and window-trap bound.
	var err error
	sb, err = analysis.AnalyzeStack(p, analysis.StackOptions{
		NumWindows:       pf.CPU.NumWindows,
		StackOffsetBound: cfg.StackOffsetBound,
		Resolve:          cfg.Resolve,
	})
	if err != nil {
		a.diag(analysis.Error, "", 0, "stack analysis failed: %v", err)
		return a, nil, false
	}
	a.windowSafe = sb.WindowSpillBound == 0
	rep.WindowSafe = a.windowSafe
	if !a.windowSafe {
		a.diag(analysis.Warning, "", 0,
			"program is not window-safe (up to %d spill(s)): every save/restore is charged a full trap", sb.WindowSpillBound)
	}

	// Deterministic layout (ModeDet only).
	if a.det() {
		seq := cfg.Layout
		if seq == (loader.SequentialConfig{}) {
			seq = loader.DefaultSequentialConfig()
		}
		lay, err := loader.LayoutSequential(p, seq)
		if err != nil {
			a.diag(analysis.Error, "", 0, "layout failed: %v", err)
			return a, nil, false
		}
		a.layout = lay.Placement
	}

	// Domain gates.
	modLRU := func(c cache.Config) bool {
		return c.Placement == cache.PlacementModulo && c.Replacement == cache.ReplacementLRU
	}
	a.useMustI = a.det() && modLRU(pf.IL1)
	a.useMustD = a.det() && modLRU(pf.DL1) && a.windowSafe
	a.hotIOK = a.mode != ModeDSRLazy && modLRU(pf.IL1)
	a.hotDOK = a.mode != ModeDSRLazy && modLRU(pf.DL1) && a.windowSafe
	if a.det() && (!modLRU(pf.IL1) || !modLRU(pf.DL1)) {
		a.diag(analysis.Warning, "", 0,
			"cache is not modulo-placed LRU: must/may analysis and persistence disabled (every access charged as a miss)")
	}

	// Per-function artifacts.
	if !a.buildFns() {
		return a, sb, false
	}
	a.computeReach()

	// Loop bounds (reachable functions only: dead code needs none).
	allBounded := true
	for _, f := range p.Functions {
		if !a.reach[f.Name] {
			continue
		}
		fi := a.fns[f.Name]
		ok := fi.df.resolveBounds(fi.g, fi.nest, func(sev analysis.Severity, idx int, format string, args ...interface{}) {
			a.diag(sev, f.Name, idx, format, args...)
		})
		if !ok {
			allBounded = false
		}
		// Phase 2: precise induction ranges for the address analysis.
		fi.df.run()
		a.buildAccesses(fi)
	}
	for _, f := range p.Functions {
		if !a.reach[f.Name] {
			continue
		}
		fi := a.fns[f.Name]
		for _, l := range fi.nest.loops {
			lb := LoopBound{Fn: f.Name, Head: fi.g.Blocks[l.header].Start, Bound: l.bound, Source: l.source, Depth: l.depth}
			if cfg.Lines != nil {
				if ln, ok := cfg.Lines(f.Name, lb.Head); ok {
					lb.Line = ln
				}
			}
			rep.Loops = append(rep.Loops, lb)
		}
	}
	if !allBounded {
		return a, sb, false
	}

	// Must/may classification.
	for _, f := range p.Functions {
		if !a.reach[f.Name] {
			continue
		}
		fi := a.fns[f.Name]
		fi.cls = cachedom.Classify(fi.g, fi.plan, a.il1, a.dl1, a.useMustI, a.useMustD)
		rep.AlwaysHit += fi.cls.AlwaysHit
		rep.AlwaysMiss += fi.cls.AlwaysMiss
		rep.NotClassified += fi.cls.NotClassified
	}
	return a, sb, true
}

// buildFns constructs CFGs, loop nests, call clobbers and phase-1
// dataflow for every function.
func (a *analyzer) buildFns() bool {
	// Global facts for the clobber model: the registers each leaf
	// writes, and whether any function writes %sp/%fp as an ordinary
	// destination (if none does, a caller's %sp survives calls — the
	// callee sees it as %fp and window rotation restores the rest).
	leafWrites := map[string][]isa.Reg{}
	spWritten := false
	for _, f := range a.p.Functions {
		var writes []isa.Reg
		seen := map[isa.Reg]bool{}
		for i := range f.Code {
			in := &f.Code[i]
			for r := isa.G0; r < isa.NumRegs; r++ {
				if writesIntReg(in, r) {
					if r == isa.SP || r == isa.FP {
						spWritten = true
					}
					if f.Leaf && !seen[r] {
						seen[r] = true
						writes = append(writes, r)
					}
				}
			}
		}
		if f.Leaf {
			leafWrites[f.Name] = writes
		}
	}
	// A non-leaf callee gets a fresh window: the caller keeps its
	// locals and ins; its globals and outs (the callee's ins) may die.
	nonLeafClobber := []isa.Reg{
		isa.G1, isa.G2, isa.G3, isa.G4, isa.G5, isa.G6, isa.G7,
		isa.O0, isa.O1, isa.O2, isa.O3, isa.O4, isa.O5, isa.O7,
	}
	if spWritten {
		nonLeafClobber = append(nonLeafClobber, isa.SP)
	}

	for _, f := range a.p.Functions {
		g := analysis.BuildCFG(f)
		fi := &fnInfo{
			fn: f, g: g, nest: buildLoopNest(g),
			callee: make([]string, len(f.Code)),
		}
		if a.det() {
			fi.base = a.layout[f.Name]
		}
		fi.df = newDataflow(f, g)
		for i := range f.Code {
			var callee string
			switch f.Code[i].Op {
			case isa.Call:
				callee = f.Code[i].Sym
			case isa.CallR:
				if a.cfg.Resolve != nil {
					if c, ok := a.cfg.Resolve(f, i); ok {
						callee = c
					}
				}
				if callee == "" {
					fi.df.clobbers[i] = callClobber{all: true}
					continue
				}
			default:
				continue
			}
			fi.callee[i] = callee
			target := a.p.Function(callee)
			switch {
			case target == nil:
				fi.df.clobbers[i] = callClobber{all: true}
			case target.Leaf:
				fi.df.clobbers[i] = callClobber{regs: leafWrites[callee]}
			default:
				fi.df.clobbers[i] = callClobber{regs: nonLeafClobber}
			}
		}
		fi.df.run() // phase 1: feeds loop-bound inference
		a.fns[f.Name] = fi
	}
	return true
}

// buildAccesses derives the per-instruction data-access summaries and
// the deterministic-mode access plan from the converged phase-2 states.
func (a *analyzer) buildAccesses(fi *fnInfo) {
	n := len(fi.fn.Code)
	fi.acc = make([]dataAcc, n)
	fi.plan = &cachedom.AccessPlan{
		FetchLine: make([]mem.Addr, n),
		Data:      make([]cachedom.AccessInfo, n),
		Call:      make([]bool, n),
	}
	for i := range fi.fn.Code {
		op := fi.fn.Code[i].Op
		if a.det() {
			fi.plan.FetchLine[i] = a.il1.LineOf(fi.base + mem.Addr(i)*isa.InstrBytes)
		}
		if op == isa.Call || op == isa.CallR {
			fi.plan.Call[i] = true
		}
	}
	fi.df.replay(func(i int, st *regState) {
		in := &fi.fn.Code[i]
		var acc dataAcc
		switch in.Op {
		case isa.Ld, isa.FLd:
			acc.load, acc.size = true, mem.WordSize
		case isa.Ldub:
			acc.load, acc.size = true, 1
		case isa.St, isa.FSt:
			acc.store, acc.size = true, mem.WordSize
		case isa.Stb:
			acc.store, acc.size = true, 1
		default:
			return
		}
		base := st.get(in.Rs1)
		switch base.kind {
		case vSym:
			acc.valid = true
			acc.sym = base.sym
			acc.lo, acc.hi = base.lo+int64(in.Imm), base.hi+int64(in.Imm)
		case vInt:
			acc.valid = true
			acc.lo, acc.hi = base.lo+int64(in.Imm), base.hi+int64(in.Imm)
		}
		fi.acc[i] = acc

		// Deterministic plan entry for the must/may domains: only
		// single-line concrete addresses are "known".
		if a.det() && acc.valid {
			var lo, hi mem.Addr
			resolved := false
			switch {
			case acc.sym == "":
				if acc.lo >= 0 {
					lo, hi = mem.Addr(acc.lo), mem.Addr(acc.hi+int64(acc.size)-1)
					resolved = true
				}
			default:
				if b, ok := a.layout[acc.sym]; ok && acc.lo >= 0 {
					lo, hi = b+mem.Addr(acc.lo), b+mem.Addr(acc.hi)+mem.Addr(acc.size)-1
					resolved = true
				}
			}
			if resolved && a.dl1.LineOf(lo) == a.dl1.LineOf(hi) {
				fi.plan.Data[i] = cachedom.AccessInfo{Load: acc.load, Store: acc.store, LineKnown: true, Line: a.dl1.LineOf(lo)}
				return
			}
		}
		fi.plan.Data[i] = cachedom.AccessInfo{Load: acc.load, Store: acc.store}
	})
}

// tlbBudget bounds the page working sets. When a working set fits its
// fully-associative LRU TLB (whose insertion prefers invalid entries,
// so no page is ever evicted below capacity), each page walks at most
// once and the walks are charged once, up front; otherwise every access
// is charged a full walk and a Warning is emitted.
func (a *analyzer) tlbBudget(sb *analysis.StackBound) (itlbEach, dtlbEach bool) {
	pg := int64(mem.PageSize)
	pages := func(size int64) int { return int((size-1)/pg) + 2 } // unknown base: +1 slack

	var iPages, dPages int
	if a.det() {
		// Code and data are contiguous spans with known bases.
		var cLo, cHi, dLo, dHi mem.Addr
		first := true
		for _, f := range a.p.Functions {
			b := a.layout[f.Name]
			e := b + f.SizeBytes()
			if first || b < cLo {
				cLo = b
			}
			if first || e > cHi {
				cHi = e
			}
			first = false
		}
		iPages = int(cHi/mem.Addr(pg)-cLo/mem.Addr(pg)) + 1
		first = true
		for _, d := range a.p.Data {
			b := a.layout[d.Name]
			e := b + d.Size
			if first || b < dLo {
				dLo = b
			}
			if first || e > dHi {
				dHi = e
			}
			first = false
		}
		if !first {
			dPages = int(dHi/mem.Addr(pg)-dLo/mem.Addr(pg)) + 1
		}
	} else {
		for _, f := range a.p.Functions {
			iPages += pages(int64(f.SizeBytes()))
		}
		for _, d := range a.p.Data {
			dPages += pages(int64(d.Size))
		}
	}
	// The stack span below StackTop is concrete in every mode.
	stackBytes := int64(sb.MaxStackBytes)
	if stackBytes > 0 {
		dPages += int(stackBytes/pg) + 1
	}
	a.rep.ITLBPages, a.rep.DTLBPages = iPages, dPages

	// An unknown-address data access could touch a fresh page each
	// time; the budget argument then fails. Only reachable code counts
	// (pruned functions never execute and carry no access summaries).
	unknownAcc := false
	for _, fi := range a.fns {
		if !a.reach[fi.fn.Name] {
			continue
		}
		for b := range fi.g.Blocks {
			if !fi.g.Reachable[b] {
				continue
			}
			blk := fi.g.Blocks[b]
			for i := blk.Start; i < blk.End; i++ {
				acc := fi.acc[i]
				if (acc.load || acc.store) && !acc.valid {
					unknownAcc = true
				}
			}
		}
	}

	if iPages > a.pf.ITLB.Entries {
		itlbEach = true
		a.diag(analysis.Warning, "", 0,
			"code spans %d pages > %d ITLB entries: charging a page walk per fetch", iPages, a.pf.ITLB.Entries)
	}
	if dPages > a.pf.DTLB.Entries || unknownAcc {
		dtlbEach = true
		why := fmt.Sprintf("data+stack span %d pages > %d DTLB entries", dPages, a.pf.DTLB.Entries)
		if unknownAcc {
			why = "a data access has no statically known address"
		}
		a.diag(analysis.Warning, "", 0, "%s: charging a page walk per data access", why)
	}
	return itlbEach, dtlbEach
}
