package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Checkpoint file names inside a job directory. The current snapshot
// is rotated to the .prev name before each replacement, so a crash at
// any instant leaves at least one intact, checksummed snapshot on
// disk.
const (
	checkpointFile = "checkpoint.json"
	checkpointPrev = "checkpoint.prev.json"
)

// Checkpoint is a persisted campaign prefix: the merged points in
// canonical order plus the seed-schedule cursor (the next index to
// execute). Because each run is a pure function of (Spec, index), a
// job resumed from any checkpoint finishes with byte-identical
// results, telemetry and report.
type Checkpoint struct {
	// Job is the owning job id.
	Job string `json:"job"`
	// SpecHash binds the snapshot to the exact spec it was taken under;
	// a snapshot from a different spec is treated as corrupt.
	SpecHash string `json:"spec_hash"`
	// Cursor is the resume index: Points[0:Cursor] are merged, the
	// engine restarts at First=Cursor.
	Cursor int `json:"cursor"`
	// Points is the merged canonical prefix.
	Points []Point `json:"points"`
	// Sum is the hex sha256 of the checkpoint JSON with Sum itself
	// cleared; a truncated or bit-flipped snapshot fails verification
	// and the loader falls back to the previous rotation.
	Sum string `json:"sum"`
}

// sum computes the canonical payload checksum.
func (c *Checkpoint) sum() string {
	cp := *c
	cp.Sum = ""
	b, err := json.Marshal(cp)
	if err != nil {
		// Checkpoint is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal checkpoint: %v", err))
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// verify checks integrity (checksum) and consistency (ownership,
// cursor/prefix agreement) of a loaded snapshot.
func (c *Checkpoint) verify(job, specHash string) error {
	if c.Sum != c.sum() {
		return fmt.Errorf("serve: checkpoint checksum mismatch")
	}
	if c.Job != job {
		return fmt.Errorf("serve: checkpoint belongs to job %q, not %q", c.Job, job)
	}
	if c.SpecHash != specHash {
		return fmt.Errorf("serve: checkpoint spec hash mismatch")
	}
	if c.Cursor != len(c.Points) {
		return fmt.Errorf("serve: checkpoint cursor %d disagrees with %d points", c.Cursor, len(c.Points))
	}
	for k, pt := range c.Points {
		if pt.Index != k {
			return fmt.Errorf("serve: checkpoint prefix not contiguous at %d", k)
		}
	}
	return nil
}

// WriteCheckpoint atomically persists a snapshot into dir: the payload
// is checksummed, written to a temporary file and renamed over the
// current checkpoint, which is first rotated to the .prev name. The
// job directory therefore always holds a loadable snapshot, whatever
// instant the process dies at. c.Sum is ignored and recomputed.
func WriteCheckpoint(dir string, c Checkpoint) error {
	points := []byte("null")
	if c.Points != nil {
		var err error
		if points, err = json.Marshal(c.Points); err != nil {
			return fmt.Errorf("serve: marshal checkpoint: %w", err)
		}
	}
	_, err := writeCheckpoint(dir, c.Job, c.SpecHash, c.Cursor, points)
	return err
}

// writeCheckpoint is WriteCheckpoint over a points array that is
// already JSON-encoded, given as pieces to concatenate. The file holds
// exactly the bytes json.Marshal produces for the Checkpoint with its
// Sum filled in, plus a newline; Sum is the sha256 of the same encoding
// with Sum empty. The points bytes are hashed and written in place,
// never copied or re-encoded. It returns the file's size.
func writeCheckpoint(dir, job, specHash string, cursor int, points ...[]byte) (int, error) {
	jobJSON, err := json.Marshal(job)
	if err != nil {
		return 0, fmt.Errorf("serve: marshal checkpoint: %w", err)
	}
	hashJSON, err := json.Marshal(specHash)
	if err != nil {
		return 0, fmt.Errorf("serve: marshal checkpoint: %w", err)
	}
	head := make([]byte, 0, 64+len(jobJSON)+len(hashJSON))
	head = append(head, `{"job":`...)
	head = append(head, jobJSON...)
	head = append(head, `,"spec_hash":`...)
	head = append(head, hashJSON...)
	head = append(head, `,"cursor":`...)
	head = strconv.AppendInt(head, int64(cursor), 10)
	head = append(head, `,"points":`...)

	h := sha256.New()
	h.Write(head)
	for _, p := range points {
		h.Write(p)
	}
	h.Write([]byte(`,"sum":""}`))
	tail := make([]byte, 0, 11+2*sha256.Size)
	tail = append(tail, `,"sum":"`...)
	tail = hex.AppendEncode(tail, h.Sum(nil))
	tail = append(tail, "\"}\n"...)

	tmp := filepath.Join(dir, checkpointFile+".tmp")
	if err := writeFile(tmp, append(append([][]byte{head}, points...), tail)...); err != nil {
		return 0, fmt.Errorf("serve: write checkpoint: %w", err)
	}
	cur := filepath.Join(dir, checkpointFile)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, filepath.Join(dir, checkpointPrev)); err != nil {
			return 0, fmt.Errorf("serve: rotate checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return 0, fmt.Errorf("serve: commit checkpoint: %w", err)
	}
	n := len(head) + len(tail)
	for _, p := range points {
		n += len(p)
	}
	return n, nil
}

// writeFile is os.WriteFile over the concatenation of parts, written
// one part at a time.
func writeFile(name string, parts ...[]byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// encodedPoints is the JSON encoding of a merged canonical prefix,
// built one point at a time as the points merge, so each point is
// encoded exactly once however many checkpoints include it.
type encodedPoints struct {
	n     int
	elems []byte // the encoded points joined by commas
}

// add appends the encoding of the next point.
func (e *encodedPoints) add(pt Point) {
	b, err := json.Marshal(pt)
	if err != nil {
		// Point is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal point: %v", err))
	}
	if e.n > 0 {
		e.elems = append(e.elems, ',')
	}
	e.elems = append(e.elems, b...)
	e.n++
}

// array returns the pieces of the points as a JSON array.
func (e *encodedPoints) array() [][]byte {
	return [][]byte{[]byte("["), e.elems, []byte("]")}
}

// checkpointValue returns the pieces of the checkpoint's points value:
// null for an empty prefix, matching the nil slice the merge hook held
// before its first point.
func (e *encodedPoints) checkpointValue() [][]byte {
	if e.n == 0 {
		return [][]byte{[]byte("null")}
	}
	return e.array()
}

// LoadCheckpoint returns the newest intact snapshot for the job, or
// (nil, "") when none survives: the current checkpoint if it verifies,
// else the previous rotation, else nothing — a corrupt file is never
// trusted, and the caller restarts from scratch rather than resuming
// from damaged state. The second result names the file the snapshot
// came from, so callers can log fallbacks.
func LoadCheckpoint(dir, job, specHash string) (*Checkpoint, string) {
	for _, name := range []string{checkpointFile, checkpointPrev} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var c Checkpoint
		if err := json.Unmarshal(b, &c); err != nil {
			continue
		}
		if err := c.verify(job, specHash); err != nil {
			continue
		}
		return &c, name
	}
	return nil, ""
}
