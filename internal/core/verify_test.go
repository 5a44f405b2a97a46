package core

// Differential verification of the DSR compiler pass: every Transform
// output in the test corpus must verify clean under
// analysis.VerifyTransform, and hand-mutated invariant violations must
// be rejected. This is the oracle the MBPTA argument rests on — a
// transformation bug that survives these checks would silently poison
// every measurement campaign built on it.

import (
	"strings"
	"testing"

	"dsr/internal/analysis"
	"dsr/internal/isa"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
)

// corpus returns every program the repository ships, by name.
func corpus(t testing.TB) map[string]*prog.Program {
	t.Helper()
	out := map[string]*prog.Program{"bench": benchProgram(t)}
	ctrl, err := spaceapp.BuildControl()
	if err != nil {
		t.Fatal(err)
	}
	out["control"] = ctrl
	proc, err := spaceapp.BuildProcessing()
	if err != nil {
		t.Fatal(err)
	}
	out["processing"] = proc
	return out
}

func TestVerifyTransformCorpusClean(t *testing.T) {
	for name, p := range corpus(t) {
		tp, meta, _, err := Transform(p)
		if err != nil {
			t.Fatalf("%s: Transform: %v", name, err)
		}
		diags := analysis.VerifyTransform(p, tp, meta.TransformInfo())
		for _, d := range diags {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
}

// TestVerifyTransformRejectsMutations hand-mutates the transformed
// program in ways that each break one §III.B invariant and checks the
// verifier catches every one with an Error-level diagnostic.
func TestVerifyTransformRejectsMutations(t *testing.T) {
	findInstr := func(tp *prog.Program, fn string, pred func(*isa.Instr) bool) (*prog.Function, int) {
		f := tp.Function(fn)
		if f == nil {
			t.Fatalf("function %q missing", fn)
		}
		for i := range f.Code {
			if pred(&f.Code[i]) {
				return f, i
			}
		}
		t.Fatalf("no matching instruction in %q", fn)
		return nil, 0
	}

	cases := []struct {
		name   string
		mutate func(tp *prog.Program)
		want   string // substring of at least one Error diagnostic
	}{
		{
			name: "un-indirected call",
			mutate: func(tp *prog.Program) {
				// Replace main's first dispatch triple with the direct
				// call the pass was supposed to eliminate.
				f, i := findInstr(tp, "main", func(in *isa.Instr) bool {
					return in.Op == isa.Set && in.Rd == isa.G6
				})
				code := append([]isa.Instr{}, f.Code[:i]...)
				code = append(code, isa.Instr{Op: isa.Call, Sym: "compute"})
				code = append(code, f.Code[i+3:]...)
				f.Code = code
			},
			want: "not rewritten to table-indirect dispatch",
		},
		{
			name: "missing savex offset",
			mutate: func(tp *prog.Program) {
				// Collapse compute's prologue triple back to a plain save:
				// the stack offset would never be applied.
				f := tp.Function("compute")
				code := []isa.Instr{{Op: isa.Save, Imm: f.FrameSize}}
				f.Code = append(code, f.Code[3:]...)
			},
			want: "does not load the stack-offset table",
		},
		{
			name: "truncated ftable",
			mutate: func(tp *prog.Program) {
				tp.DataObject(FTableSym).Size = 4
			},
			want: "truncated",
		},
		{
			name: "dispatch index mismatch",
			mutate: func(tp *prog.Program) {
				_, _ = findInstr(tp, "main", func(in *isa.Instr) bool {
					if in.Op == isa.Ld && in.Rs1 == isa.G6 {
						in.Imm += 4
						return true
					}
					return false
				})
			},
			want: "wrong function",
		},
		{
			name: "offset index mismatch",
			mutate: func(tp *prog.Program) {
				_, _ = findInstr(tp, "compute", func(in *isa.Instr) bool {
					if in.Op == isa.Ld && in.Rs1 == isa.G7 {
						in.Imm += 4
						return true
					}
					return false
				})
			},
			want: "table index",
		},
		{
			name: "savex frame immediate changed",
			mutate: func(tp *prog.Program) {
				_, _ = findInstr(tp, "compute", func(in *isa.Instr) bool {
					if in.Op == isa.SaveX {
						in.Imm += 8
						return true
					}
					return false
				})
			},
			want: "differs from the original save",
		},
		{
			name: "branch displacement not remapped",
			mutate: func(tp *prog.Program) {
				_, _ = findInstr(tp, "main", func(in *isa.Instr) bool {
					if in.Op == isa.Bl {
						in.Disp++
						return true
					}
					return false
				})
			},
			want: "branch displacement remapped",
		},
		{
			name: "function dropped",
			mutate: func(tp *prog.Program) {
				tp.Functions = tp.Functions[:len(tp.Functions)-1]
			},
			want: "dropped",
		},
		{
			name: "reserved register leaked into application code",
			mutate: func(tp *prog.Program) {
				_, _ = findInstr(tp, "main", func(in *isa.Instr) bool {
					if in.Op == isa.Mov && in.Rd == isa.L0 {
						in.Rd = isa.G6
						return true
					}
					return false
				})
			},
			want: "altered",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := benchProgram(t)
			tp, meta, _, err := Transform(p)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(tp)
			diags := analysis.VerifyTransform(p, tp, meta.TransformInfo())
			if !analysis.HasErrors(diags) {
				t.Fatalf("mutation accepted; want at least one error")
			}
			found := false
			for _, d := range analysis.Errors(diags) {
				if strings.Contains(d.Msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no error mentions %q; got:", tc.want)
				for _, d := range diags {
					t.Logf("  %s", d)
				}
			}
		})
	}
}

// TestVerifyOverheadBudget checks invariant 6: the static instruction
// overhead budget. The call-heavy bench program exceeds the paper's 2%
// budget by construction; a realistically compute-heavy program stays
// inside it.
func TestVerifyOverheadBudget(t *testing.T) {
	p := benchProgram(t)
	tp, meta, _, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	info := meta.TransformInfo()
	info.MaxOverheadFrac = 0.02
	diags := analysis.VerifyTransform(p, tp, info)
	found := false
	for _, d := range analysis.Errors(diags) {
		if strings.Contains(d.Msg, "overhead") {
			found = true
		}
	}
	if !found {
		t.Error("call-heavy program passed the 2% overhead budget")
	}
	// A generous budget accepts the same transformation.
	info.MaxOverheadFrac = 0.5
	if diags := analysis.VerifyTransform(p, tp, info); analysis.HasErrors(diags) {
		t.Errorf("50%% budget rejected: %v", analysis.Errors(diags))
	}

	// Compute-heavy program: 600 straight-line instructions, one call →
	// 4 extra instructions, well under 2%.
	big := &prog.Program{Name: "big", Entry: "main"}
	work := &prog.Function{Name: "work", Leaf: true}
	for i := 0; i < 600; i++ {
		work.Code = append(work.Code, isa.Instr{Op: isa.Add, Rd: isa.O0, Rs1: isa.O0, Rs2: isa.G0})
	}
	work.Code = append(work.Code, isa.Instr{Op: isa.RetL})
	main := &prog.Function{Name: "main", FrameSize: prog.MinFrame, Code: []isa.Instr{
		{Op: isa.Save, Imm: prog.MinFrame},
		{Op: isa.Call, Sym: "work"},
		{Op: isa.Halt},
	}}
	big.Functions = append(big.Functions, main, work)
	btp, bmeta, _, err := Transform(big)
	if err != nil {
		t.Fatal(err)
	}
	binfo := bmeta.TransformInfo()
	binfo.MaxOverheadFrac = 0.02
	if diags := analysis.VerifyTransform(big, btp, binfo); analysis.HasErrors(diags) {
		t.Errorf("compute-heavy program failed the 2%% budget: %v", analysis.Errors(diags))
	}
}

// TestVerifyTransformNilSafety: the verifier is documented never to
// panic on malformed input.
func TestVerifyTransformNilSafety(t *testing.T) {
	if diags := analysis.VerifyTransform(nil, nil, analysis.TransformInfo{}); !analysis.HasErrors(diags) {
		t.Error("nil programs not rejected")
	}
	p := benchProgram(t)
	// Empty info: every callee is "absent from the metadata index".
	tp, _, _, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	if diags := analysis.VerifyTransform(p, tp, analysis.TransformInfo{}); !analysis.HasErrors(diags) {
		t.Error("empty metadata accepted")
	}
}
