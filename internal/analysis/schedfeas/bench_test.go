package schedfeas_test

import (
	"testing"

	"dsr/internal/analysis/schedfeas"
	"dsr/internal/experiments"
)

// BenchmarkAnalyzeCaseStudy measures certification of the case-study
// major frame under both E9 policies: the analysis every E9 cell and
// `dsrsched -builtin casestudy` runs.
func BenchmarkAnalyzeCaseStudy(b *testing.B) {
	spec := experiments.CaseStudySchedSpec()
	for _, rand := range []bool{false, true} {
		policy := experiments.CaseStudySchedPolicy(rand)
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := schedfeas.Analyze(spec, policy, schedfeas.Config{}); rep.Cert == nil {
					b.Fatalf("case study not certified: %v", rep.Violations)
				}
			}
		})
	}
}
