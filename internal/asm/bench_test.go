package asm

import (
	"os"
	"path/filepath"
	"testing"

	"dsr/internal/prog"
)

var progSink *prog.Program

// BenchmarkAssembleUoA measures the assemble stage of a dsrserve job
// (Spec.Validate and Run each assemble the submitted source) on the
// shipped unit of analysis. The built-in apps have no assembly source;
// spaceapp's BenchmarkBuildControl covers their build stage.
func BenchmarkAssembleUoA(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("testdata", "uoa.s"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if progSink, err = Assemble(string(src)); err != nil {
			b.Fatal(err)
		}
	}
}
