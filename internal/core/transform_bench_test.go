package core

import (
	"testing"

	"dsr/internal/analysis"
	"dsr/internal/spaceapp"
)

// BenchmarkTransformVerify measures the DSR compiler pass plus its
// translation validation on the control application: the work every
// DSR runtime construction (one per campaign worker) and every
// dsrserve spec validation repeats.
func BenchmarkTransformVerify(b *testing.B) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp, meta, _, err := Transform(p)
		if err != nil {
			b.Fatal(err)
		}
		if diags := analysis.VerifyTransform(p, tp, meta.TransformInfo()); analysis.HasErrors(diags) {
			b.Fatal(analysis.Errors(diags)[0])
		}
	}
}
