package spaceapp

import (
	"testing"

	"dsr/internal/loader"
	"dsr/internal/platform"
)

// Layer benchmarks for the input path of a partition activation: the
// input generators, their DMA delivery into the image, and the golden
// models every run is checked against. Generator seeds vary per
// iteration so the lit-lens count (and with it the generator's work)
// varies as in a campaign.

// Sinks keep the compiler from discarding the measured calls.
var (
	sceneSink   *Scene
	procSink    *ProcessingResult
	controlSink *ControlInput
	crcSink     uint32
)

func BenchmarkGenScene(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sceneSink = GenScene(9000+uint64(i), LitFraction)
	}
}

func BenchmarkApplyScene(b *testing.B) {
	p, err := BuildProcessing()
	if err != nil {
		b.Fatal(err)
	}
	img, err := loader.Load(p, loader.DefaultSequentialConfig())
	if err != nil {
		b.Fatal(err)
	}
	plat := platform.New(platform.ProximaLEON3())
	plat.LoadImage(img)
	s := GenScene(9000, LitFraction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ApplyScene(plat.Mem, img, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessingReference(b *testing.B) {
	s := GenScene(9000, LitFraction)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procSink = ProcessingReference(s)
	}
}

func BenchmarkGenControlInput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		controlSink = GenControlInput(9000 + uint64(i))
	}
}

func BenchmarkControlReference(b *testing.B) {
	in := GenControlInput(9000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crcSink = ControlReference(in)
	}
}

// BenchmarkBuildControl measures building the control application's
// program: the built-in apps have no assembly source, so this is their
// assemble stage, and every campaign worker pays it once.
func BenchmarkBuildControl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildControl(); err != nil {
			b.Fatal(err)
		}
	}
}
