package wcet

import (
	"testing"

	"dsr/internal/spaceapp"
)

// BenchmarkAnalyzeMode measures the static WCET analysis of the control
// application in each layout mode — dsrwcet's work and the bound the
// soundness gate checks campaigns against.
func BenchmarkAnalyzeMode(b *testing.B) {
	p, err := spaceapp.BuildControl()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []Mode{ModeDet, ModeDSREager, ModeDSRLazy} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := AnalyzeMode(p, mode, Config{})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Bounded {
					b.Fatal("control app not bounded")
				}
			}
		})
	}
}
