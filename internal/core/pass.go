// Package core is the paper's primary contribution: PROXIMA's Dynamic
// Software Randomisation (DSR), implemented — as in the paper (§III.B) —
// as a compiler pass plus a runtime system derived from Stabilizer.
//
// The compiler pass (Transform) rewrites a program so that its memory
// objects can be moved at run time:
//
//   - every direct call is replaced by an indirect dispatch that loads
//     the callee's current address from a pointer table (the relocation
//     metadata), so functions can live anywhere;
//   - every non-leaf prologue SAVE is replaced by a load of the
//     function's random stack offset from an offset table followed by a
//     SAVEX that applies it atomically inside the window save, keeping
//     the stack pointer valid and double-word aligned at all times
//     (§III.B.2, the register-window challenge); and
//   - the two metadata tables are added to the program as data objects,
//     so the runtime's table accesses flow through the data cache
//     exactly like the real system's do.
//
// The runtime (Runtime) performs the per-run work: drawing a fresh
// random placement for every function and data object from HeapLayers-
// style pools, rebuilding the image (eager relocation), writing the
// metadata tables, and modelling the SPARC cache-consistency routine the
// port required (write back the relocated code, invalidate stale
// instruction and L2 lines — §III.B.1).
package core

import (
	"fmt"

	"dsr/internal/analysis"
	"dsr/internal/isa"
	"dsr/internal/mem"
	"dsr/internal/prog"
)

// Symbol names of the DSR metadata tables injected by the pass.
const (
	// FTableSym is the function pointer table: word i holds the current
	// address of function i.
	FTableSym = "__dsr_ftable"
	// OffsetsSym is the stack offset table: word i holds the random
	// stack-frame offset of function i for this run.
	OffsetsSym = "__dsr_offsets"
)

// Scratch registers reserved for the DSR dispatch sequences. SPARC
// reserves %g6/%g7 for the system; application code must not use them.
const (
	dispatchReg = isa.G6
	offsetReg   = isa.G7
)

// Metadata is the relocation metadata the pass emits for the runtime.
type Metadata struct {
	// Funcs lists function names in table-index order.
	Funcs []string
	// Index maps a function name to its table index.
	Index map[string]int
}

// TransformInfo describes the transformation m belongs to for the
// static verifier and the dispatch resolver.
func (m *Metadata) TransformInfo() analysis.TransformInfo {
	return analysis.TransformInfo{FTableSym: FTableSym, OffsetsSym: OffsetsSym, Funcs: m.Funcs}
}

// PassStats summarises the code-size cost of the transformation; the
// paper reports <2% total instruction overhead for the case study.
type PassStats struct {
	CallsRewritten     int
	ProloguesRewritten int
	// ExtraInstrs is the static code growth in instructions.
	ExtraInstrs int
}

// Transform applies the DSR compiler pass to p, returning the rewritten
// program (p itself is not modified), the relocation metadata, and the
// code-growth statistics.
//
// Requirements on p: it validates, and every non-leaf function starts
// with its prologue SAVE as the first instruction (the shape the
// builder's Prologue emits, and what a compiler guarantees).
func Transform(p *prog.Program) (*prog.Program, *Metadata, PassStats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, PassStats{}, fmt.Errorf("core: input program invalid: %w", err)
	}
	q := p.Clone()
	meta := &Metadata{Index: map[string]int{}}
	for i, f := range q.Functions {
		meta.Funcs = append(meta.Funcs, f.Name)
		meta.Index[f.Name] = i
	}
	var stats PassStats

	for _, f := range q.Functions {
		code, err := transformFunction(f, meta, &stats)
		if err != nil {
			return nil, nil, PassStats{}, err
		}
		f.Code = code
	}

	tableSize := mem.Addr(4 * len(meta.Funcs))
	if tableSize == 0 {
		tableSize = 4
	}
	if err := q.AddData(&prog.DataObject{Name: FTableSym, Size: tableSize, Align: 8}); err != nil {
		return nil, nil, PassStats{}, err
	}
	if err := q.AddData(&prog.DataObject{Name: OffsetsSym, Size: tableSize, Align: 8}); err != nil {
		return nil, nil, PassStats{}, err
	}
	if err := q.Validate(); err != nil {
		return nil, nil, PassStats{}, fmt.Errorf("core: transformed program invalid: %w", err)
	}
	return q, meta, stats, nil
}

// transformFunction rewrites one function: prologue SAVE → offset-table
// load + SAVEX, and every CALL → pointer-table load + CALLR. Branch
// displacements are remapped across the insertions.
func transformFunction(f *prog.Function, meta *Metadata, stats *PassStats) ([]isa.Instr, error) {
	selfIdx := int32(meta.Index[f.Name])
	var out []isa.Instr
	// newPos[i] is the index in out of the instruction that replaces
	// f.Code[i] (for branches: the branch itself).
	newPos := make([]int, len(f.Code)+1)

	for i := range f.Code {
		in := f.Code[i]
		switch {
		case i == 0 && in.Op == isa.Save && !f.Leaf:
			// Prologue: %g7 = offsets[self]; savex frame, %g7.
			newPos[i] = len(out)
			out = append(out,
				isa.Instr{Op: isa.Set, Rd: offsetReg, Sym: OffsetsSym},
				isa.Instr{Op: isa.Ld, Rd: offsetReg, Rs1: offsetReg, Imm: selfIdx * 4},
				isa.Instr{Op: isa.SaveX, Imm: in.Imm, Rs2: offsetReg},
			)
			stats.ProloguesRewritten++
			stats.ExtraInstrs += 2
		case in.Op == isa.Save && !f.Leaf:
			// A SAVE that is not the first instruction would need its own
			// offset load; the toolchain convention forbids it.
			return nil, fmt.Errorf("core: %q has a non-prologue save at %d", f.Name, i)
		case in.Op == isa.Call:
			idx, ok := meta.Index[in.Sym]
			if !ok {
				return nil, fmt.Errorf("core: %q calls unknown %q", f.Name, in.Sym)
			}
			newPos[i] = len(out)
			out = append(out,
				isa.Instr{Op: isa.Set, Rd: dispatchReg, Sym: FTableSym},
				isa.Instr{Op: isa.Ld, Rd: dispatchReg, Rs1: dispatchReg, Imm: int32(idx) * 4},
				isa.Instr{Op: isa.CallR, Rs1: dispatchReg},
			)
			stats.CallsRewritten++
			stats.ExtraInstrs += 2
		default:
			newPos[i] = len(out)
			out = append(out, in)
		}
	}
	newPos[len(f.Code)] = len(out)

	// Remap branch displacements. A branch at old i sits at newPos[i]
	// (branches are never expanded); its target old i+disp sits at
	// newPos[i+disp] (expanded sites map to the start of their sequence,
	// which is correct: a branch to a call lands on the dispatch load).
	for i := range f.Code {
		if !f.Code[i].Op.IsBranch() {
			continue
		}
		tgt := i + int(f.Code[i].Disp)
		out[newPos[i]].Disp = int32(newPos[tgt] - newPos[i])
	}

	// Loop-bound annotations ride along: an annotation on old index i
	// moves to newPos[i] (for expanded sites, the start of the expansion
	// — still inside the same loop, so the innermost-loop binding is
	// preserved).
	if f.LoopBounds != nil {
		remapped := make(map[int]int, len(f.LoopBounds))
		for i, n := range f.LoopBounds {
			remapped[newPos[i]] = n
		}
		f.LoopBounds = remapped
	}
	return out, nil
}
