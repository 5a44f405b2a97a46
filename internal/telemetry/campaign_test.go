package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dsr/internal/mem"
)

var updateGolden = flag.Bool("update", false, "rewrite the RecordRun golden JSONL file")

const recordRunGolden = "testdata/record_run.golden.jsonl"

// recordRunSequence is a fixed record stream over two interleaved
// series: attribution on and off, UoA zero and non-zero (and never set
// in "No Rand", so its UoA histogram must never register), and
// attribution components whose first non-zero value arrives at
// different runs (a component that is zero in every run never
// registers a series).
func recordRunSequence() []RunRecord {
	var recs []RunRecord
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 24; i++ {
		series := "No Rand"
		if i%3 != 0 {
			series = "Sw Rand"
		}
		rec := RunRecord{
			Series: series,
			Index:  i / 2,
			Seed:   next() % 100000,
			Cycles: mem.Cycles(5000 + next()%20000),
		}
		if series == "Sw Rand" && i%4 != 1 {
			rec.UoA = float64(1000 + next()%4000)
		}
		if i%5 != 2 {
			rec.Attribution.Valid = true
			for comp := Component(0); comp < NumComponents; comp++ {
				// Component comp first turns non-zero at run comp, and
				// the last two components never do.
				if int(comp) <= i && comp < NumComponents-2 && next()%3 != 0 {
					rec.Attribution.Buckets[comp] = mem.Cycles(1 + next()%500)
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRecordRunGolden pins the registry and event-log output of
// RecordRun byte for byte: resolving metric handles once per series
// must not change a single exported byte. Regenerate with
// go test ./internal/telemetry -run TestRecordRunGolden -update.
func TestRecordRunGolden(t *testing.T) {
	c := NewCampaign(0)
	for _, rec := range recordRunSequence() {
		c.RecordRun(rec)
	}
	var got bytes.Buffer
	if err := c.Dump().WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(recordRunGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recordRunGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(recordRunGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("RecordRun JSONL differs from %s (%d vs %d bytes)", recordRunGolden, got.Len(), len(want))
	}
}

// BenchmarkCampaignRecordRun times booking one attributed run with a
// UoA span, the per-run telemetry cost of a campaign merge. Run with
// -benchmem.
func BenchmarkCampaignRecordRun(b *testing.B) {
	recs := recordRunSequence()
	c := NewCampaign(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordRun(recs[i%len(recs)])
	}
}
