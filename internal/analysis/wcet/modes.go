package wcet

import (
	"fmt"

	"dsr/internal/analysis"
	"dsr/internal/core"
	"dsr/internal/platform"
	"dsr/internal/prog"
)

// AnalyzeMode bounds the build variant that actually runs under mode,
// so callers (cmd/dsrwcet, the soundness gate, the experiments harness)
// cannot wire the analysis differently from the runtime:
//
//   - ModeDet analyses p itself on the deterministic sequential layout
//     (the paper's COTS baseline);
//   - the DSR modes analyse the core.Transform output — the program the
//     DSR runtime executes — with the canonical dispatch resolver for
//     the transform's indirect calls and the runtime's default
//     stack-offset bound (the platform's L2 way size, matching
//     core.Options.fillDefaults);
//   - ModeDSRLazy additionally derives the per-function relocation
//     charge from the platform (RelocCostBound) unless base.RelocBound
//     is already set.
//
// base.Mode is overridden by mode; base.Lines is dropped for the DSR
// modes because instruction indices move under the transform.
func AnalyzeMode(p *prog.Program, mode Mode, base Config) (*Report, error) {
	base.Mode = mode
	if mode == ModeDet {
		return Analyze(p, base), nil
	}
	tp, meta, _, err := core.Transform(p)
	if err != nil {
		return nil, fmt.Errorf("wcet: DSR transform failed: %w", err)
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
	if mode == ModeDSRLazy && base.RelocBound == 0 {
		base.RelocBound = RelocCostBound(tp, base.Platform, base.BusContention)
	}
	return Analyze(tp, base), nil
}
