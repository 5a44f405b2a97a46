package core

import (
	"testing"

	"dsr/internal/analysis"
	"dsr/internal/isa"
)

// isDispatchInstr reports whether in belongs to one of the DSR dispatch
// sequences (touches %g6/%g7), where some fields are semantically dead
// (e.g. the Imm of a set that carries a Sym, or the Disp of a callr)
// and a verifier is entitled to ignore mutations to them.
func isDispatchInstr(in *isa.Instr) bool {
	g := func(r isa.Reg) bool { return r == isa.G6 || r == isa.G7 }
	return g(in.Rd) || g(in.Rs1) || g(in.Rs2)
}

// FuzzVerifyTransform mutates single fields of the transformed program
// and checks two properties of the verifier: it never panics, and every
// mutation of a semantically live field draws an Error-level
// diagnostic. Field liveness is conservative — for instructions inside
// the dispatch sequences only the fields the canonical shape pins down
// (opcodes, table-load immediates, savex frames) are asserted.
func FuzzVerifyTransform(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(0), int32(1))
	f.Add(uint16(1), uint16(3), uint8(1), int32(4))
	f.Add(uint16(0), uint16(7), uint8(2), int32(-1))
	f.Add(uint16(2), uint16(0), uint8(3), int32(2))
	f.Add(uint16(0), uint16(5), uint8(4), int32(8))
	f.Add(uint16(1), uint16(1), uint8(5), int32(12))

	f.Fuzz(func(t *testing.T, fsel, isel uint16, field uint8, val int32) {
		p := benchProgram(t)
		tp, meta, _, err := Transform(p)
		if err != nil {
			t.Fatal(err)
		}
		info := meta.TransformInfo()

		fn := tp.Functions[int(fsel)%len(tp.Functions)]
		if len(fn.Code) == 0 {
			return
		}
		in := &fn.Code[int(isel)%len(fn.Code)]
		before := *in

		mustReject := false
		switch field % 6 {
		case 0: // opcode: always shape-checked or compared verbatim
			in.Op = isa.Op(uint8(in.Op) + uint8(val))
			mustReject = true
		case 1: // immediate
			in.Imm += val
			// Live unless it is the Imm of a dispatch set/callr (dead:
			// the symbol/register carries the target).
			mustReject = !isDispatchInstr(&before) ||
				before.Op == isa.Ld || before.Op == isa.SaveX
		case 2: // branch displacement
			in.Disp += val
			mustReject = !isDispatchInstr(&before)
		case 3: // destination register
			in.Rd = isa.Reg(uint8(in.Rd)+uint8(val)) % 32
			mustReject = !isDispatchInstr(&before)
		case 4: // first source register
			in.Rs1 = isa.Reg(uint8(in.Rs1)+uint8(val)) % 32
			mustReject = !isDispatchInstr(&before)
		case 5: // symbol
			in.Sym += "x"
			mustReject = !isDispatchInstr(&before) || before.Op == isa.Set
		}
		if *in == before {
			return // mutation was the identity; nothing to assert
		}
		// A mutation that makes the instruction a valid dispatch-shape
		// member could legitimately pass some checks; the conservative
		// oracle only asserts when the original was ordinary code.
		if isDispatchInstr(in) && !isDispatchInstr(&before) {
			mustReject = false
		}

		diags := analysis.VerifyTransform(p, tp, info) // must not panic
		if mustReject && !analysis.HasErrors(diags) {
			t.Errorf("semantic mutation of %s+%d (%q → %q) accepted",
				fn.Name, int(isel)%len(fn.Code), before.String(), in.String())
		}
	})
}
