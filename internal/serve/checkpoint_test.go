package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsr/internal/mem"
	"dsr/internal/telemetry"
)

func testCheckpoint(n int) Checkpoint {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Index: i, Seed: uint64(i) * 7, Cycles: mem.Cycles(1000 + i)}
	}
	return Checkpoint{Job: "j1", SpecHash: "h1", Cursor: n, Points: pts}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(10)); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil {
		t.Fatal("no checkpoint loaded")
	}
	if src != checkpointFile {
		t.Fatalf("loaded from %s, want %s", src, checkpointFile)
	}
	if cp.Cursor != 10 || len(cp.Points) != 10 {
		t.Fatalf("cursor=%d points=%d, want 10/10", cp.Cursor, len(cp.Points))
	}
	for i, pt := range cp.Points {
		if pt.Index != i || pt.Seed != uint64(i)*7 {
			t.Fatalf("point %d round-tripped as %+v", i, pt)
		}
	}
}

// TestCheckpointRotation: each write rotates the previous snapshot to
// the .prev name, so two generations are always on disk.
func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cp, _ := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 9 {
		t.Fatalf("current checkpoint = %+v, want cursor 9", cp)
	}
	// Remove the current file: the rotation must hold the older one.
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("fallback checkpoint = %+v, want cursor 5", cp)
	}
	if src != checkpointPrev {
		t.Fatalf("fallback loaded from %s, want %s", src, checkpointPrev)
	}
}

// TestCheckpointTruncated: a snapshot cut short mid-write (simulated
// crash) fails to load and the loader falls back to the previous
// rotation.
func TestCheckpointTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, checkpointFile)
	b, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("after truncation loaded %+v from %q, want cursor 5 from prev", cp, src)
	}
	if src != checkpointPrev {
		t.Fatalf("loaded from %s, want %s", src, checkpointPrev)
	}
}

// TestCheckpointBitFlip: a single flipped bit inside the points payload
// keeps the JSON well-formed but must be caught by the checksum.
func TestCheckpointBitFlip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, checkpointFile)
	b, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside a cycle count: still valid JSON, wrong data.
	flipped := false
	for i := range b {
		if b[i] == '1' {
			b[i] = '2'
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no digit to flip")
	}
	if err := os.WriteFile(cur, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, src := LoadCheckpoint(dir, "j1", "h1")
	if cp == nil || cp.Cursor != 5 {
		t.Fatalf("after bit flip loaded %+v from %q, want cursor 5 from prev", cp, src)
	}
}

// TestCheckpointBothCorrupt: when every generation is damaged the
// loader reports none — a corrupt snapshot is never trusted, the job
// restarts from scratch.
func TestCheckpointBothCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, testCheckpoint(9)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{checkpointFile, checkpointPrev} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{broken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if cp, src := LoadCheckpoint(dir, "j1", "h1"); cp != nil {
		t.Fatalf("loaded corrupt checkpoint %+v from %q", cp, src)
	}
}

// TestCheckpointOwnership: snapshots from another job or another spec
// revision are rejected even when structurally intact.
func TestCheckpointOwnership(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, testCheckpoint(5)); err != nil {
		t.Fatal(err)
	}
	if cp, _ := LoadCheckpoint(dir, "other-job", "h1"); cp != nil {
		t.Fatal("checkpoint crossed job identity")
	}
	if cp, _ := LoadCheckpoint(dir, "j1", "other-hash"); cp != nil {
		t.Fatal("checkpoint crossed spec hash")
	}
}

// TestCheckpointBadPrefix: a snapshot whose cursor or index sequence
// disagrees with its points is corrupt regardless of its checksum
// (defense against a buggy writer, not just disk damage).
func TestCheckpointBadPrefix(t *testing.T) {
	dir := t.TempDir()
	cp := testCheckpoint(5)
	cp.Cursor = 4
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadCheckpoint(dir, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with cursor/points mismatch")
	}

	cp = testCheckpoint(5)
	cp.Points[3].Index = 7
	dir2 := t.TempDir()
	if err := WriteCheckpoint(dir2, cp); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadCheckpoint(dir2, "j1", "h1"); got != nil {
		t.Fatal("loaded checkpoint with non-contiguous points")
	}
}

// fullPoints builds an n-point canonical prefix whose points exercise
// every field: UoA zero on every third point, attribution invalid on
// every fifth.
func fullPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Index: i, Seed: uint64(i)*0x9E3779B97F4A7C15 + 1, Cycles: mem.Cycles(40000 + 37*i)}
		if i%3 != 0 {
			pts[i].UoA = float64(1000+i) + 0.25
		}
		if i%5 != 0 {
			pts[i].Attr.Valid = true
			for c := range pts[i].Attr.Buckets {
				pts[i].Attr.Buckets[c] = mem.Cycles((i + 1) * (c + 3) % 911)
			}
		}
	}
	return pts
}

// marshalCheckpoint is the reference encoding: json.Marshal of the
// checkpoint with its sum filled in, plus the trailing newline.
func marshalCheckpoint(t *testing.T, c Checkpoint) []byte {
	t.Helper()
	c.Sum = c.sum()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestCheckpointBytesMatchMarshal: both checkpoint writers — the public
// WriteCheckpoint and the merge hook's pre-encoded prefix — produce
// exactly json.Marshal's bytes for the same Checkpoint, and the loader
// accepts the file.
func TestCheckpointBytesMatchMarshal(t *testing.T) {
	type tcase struct {
		name string
		job  string
		pts  []Point
	}
	var cases []tcase
	for _, n := range []int{0, 1, 50, 1000} {
		var pts []Point
		if n > 0 {
			pts = fullPoints(n)
		}
		cases = append(cases, tcase{fmt.Sprintf("%d-points", n), "job-1", pts})
	}
	cases = append(cases,
		tcase{"escaped-id", "j\"<&>\\\n\u2028", fullPoints(3)},
		tcase{"uoa-zero-attr-invalid", "z", []Point{{Index: 0, Seed: 9, Cycles: 7}}},
		tcase{"uoa-set-attr-valid", "v", []Point{{Index: 0, Seed: 9, Cycles: 7, UoA: 3.5,
			Attr: telemetry.AttributionSnapshot{Valid: true, Buckets: [telemetry.NumComponents]mem.Cycles{1, 2}}}}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Checkpoint{Job: tc.job, SpecHash: "spec-hash", Cursor: len(tc.pts), Points: tc.pts}
			want := marshalCheckpoint(t, c)

			var enc encodedPoints
			for _, pt := range tc.pts {
				enc.add(pt)
			}
			writers := map[string]func(dir string) error{
				"WriteCheckpoint": func(dir string) error { return WriteCheckpoint(dir, c) },
				"encodedPoints": func(dir string) error {
					n, err := writeCheckpoint(dir, c.Job, c.SpecHash, enc.n, enc.checkpointValue()...)
					if err == nil && n != len(want) {
						err = fmt.Errorf("reported %d bytes, want %d", n, len(want))
					}
					return err
				},
			}
			for name, write := range writers {
				dir := t.TempDir()
				if err := write(dir); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := os.ReadFile(filepath.Join(dir, checkpointFile))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s wrote\n%.300s\nwant\n%.300s", name, got, want)
				}
				cp, src := LoadCheckpoint(dir, c.Job, c.SpecHash)
				if cp == nil || src != checkpointFile {
					t.Fatalf("%s: LoadCheckpoint rejected the file", name)
				}
				if !reflect.DeepEqual(cp.Points, c.Points) {
					t.Fatalf("%s: loaded points differ", name)
				}
			}
		})
	}

	// An empty but non-nil prefix encodes as [], not null.
	c := Checkpoint{Job: "e", SpecHash: "h", Points: []Point{}}
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, checkpointFile)); !bytes.Equal(got, marshalCheckpoint(t, c)) {
		t.Fatalf("empty prefix wrote %s", got)
	}
}

// TestCheckpointAllocsIndependentOfPrefix: a periodic checkpoint
// re-encodes nothing, so its allocation count does not grow with the
// number of merged points.
func TestCheckpointAllocsIndependentOfPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	s := &Server{cfg: Config{DataDir: t.TempDir()}}
	j := &job{spec: Spec{ID: "allocs"}, hash: "h"}
	if err := os.MkdirAll(s.jobDir(j.spec.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, n := range []int{100, 1000} {
		var enc encodedPoints
		for _, pt := range fullPoints(n) {
			enc.add(pt)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if err := s.checkpoint(j, &enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[100] != allocs[1000] {
		t.Fatalf("allocations per checkpoint: %v at 100 points, %v at 1000", allocs[100], allocs[1000])
	}
}

// TestServeJobFilesMatchMarshal: a job run by the daemon leaves
// points.json and both checkpoint generations byte-identical to
// json.Marshal of the reference campaign's points.
func TestServeJobFilesMatchMarshal(t *testing.T) {
	spec := testSpec(t, "files", 60, 2, 7)
	dir := t.TempDir()
	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 25})
	defer ts.Close()
	defer s.Stop()
	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitTerminal(t, cl, spec.ID); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	ref, err := Run(spec, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, "jobs", spec.ID)
	want, err := json.Marshal(ref.Points)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(jobDir, "points.json")); !bytes.Equal(got, append(want, '\n')) {
		t.Fatal("points.json differs from json.Marshal of the reference points")
	}
	for name, n := range map[string]int{checkpointFile: 50, checkpointPrev: 25} {
		c := Checkpoint{Job: spec.ID, SpecHash: spec.Hash(), Cursor: n, Points: ref.Points[:n]}
		if got, _ := os.ReadFile(filepath.Join(jobDir, name)); !bytes.Equal(got, marshalCheckpoint(t, c)) {
			t.Fatalf("%s differs from json.Marshal of the %d-point prefix", name, n)
		}
	}
}
