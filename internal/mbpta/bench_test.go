package mbpta

import (
	"testing"

	"dsr/internal/evt"
)

var reportSink *Report

// The MBPTA stage at paper scale (1000 runs): the batch pipeline a
// dsrsim series runs, the streaming pipeline dsrserve and the campaign
// merge feed one run at a time, and the EVT tail fit alone.

func BenchmarkAnalyse(b *testing.B) {
	times := iidSample(1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Analyse(times, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportSink = rep
	}
}

func BenchmarkStream(b *testing.B) {
	times := iidSample(1, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStream(DefaultOptions())
		for _, x := range times {
			s.Observe(x)
		}
		rep, err := s.Report()
		if err != nil {
			b.Fatal(err)
		}
		reportSink = rep
	}
}

func BenchmarkEVTFit(b *testing.B) {
	times := iidSample(1, 1000)
	block := DefaultOptions().BlockSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evt.Fit(times, block); err != nil {
			b.Fatal(err)
		}
	}
}
