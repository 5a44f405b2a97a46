package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecValidateRejectsUnsafeID: the job id becomes a directory name
// under DataDir/jobs/, so Validate must reject anything that is not a
// single safe path segment before it can reach the filesystem.
func TestSpecValidateRejectsUnsafeID(t *testing.T) {
	src := testSource(t)
	bad := []string{
		"../evil", "..", ".", "a/b", `a\b`, "a b", "a\x00b",
		"../../../../tmp/evil", strings.Repeat("x", 65),
	}
	for _, id := range bad {
		sp := Spec{ID: id, Source: src, Runs: 600, Seed: 1}
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted unsafe id %q", id)
		}
	}
	good := []string{"job-0", "A.b_c-9", strings.Repeat("x", 64)}
	for _, id := range good {
		sp := Spec{ID: id, Source: src, Runs: 600, Seed: 1}
		if err := sp.Validate(); err != nil {
			t.Errorf("Validate rejected id %q: %v", id, err)
		}
	}
}

// TestServeSubmitPathTraversal: a submission whose id tries to escape
// the data directory is rejected with 400 and must not create or write
// anything anywhere on disk.
func TestServeSubmitPathTraversal(t *testing.T) {
	dir := t.TempDir()
	s, ts, cl := startServer(t, dir, Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()

	_, err := cl.Submit(testSpec(t, "../../escaped", 600, 1, 42))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("traversal submit returned %v, want 400", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "..", "escaped")); !os.IsNotExist(err) {
		t.Fatalf("traversal submit escaped the data dir: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("traversal submit left %d entries in the jobs dir", len(entries))
	}
}

// TestCampaignServeResubmitFreshViewAndCursor: re-enqueuing a
// cancelled job must hand SSE clients a fresh live view (not the
// previous attempt's terminated stream) and report the checkpoint
// cursor as its done count until the executor starts replaying.
func TestCampaignServeResubmitFreshViewAndCursor(t *testing.T) {
	const runs = 40000
	spec := testSpec(t, "fresh", runs, 2, 42)
	dir := t.TempDir()
	s, ts, cl := startServer(t, dir, Config{Executors: 1, CheckpointEvery: 100})
	defer ts.Close()
	defer s.Stop()

	if _, err := cl.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitProgress(t, cl, "fresh", 300)
	if _, err := cl.Cancel("fresh"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st := waitTerminal(t, cl, "fresh"); st.State != StateCancelled {
		t.Fatalf("cancelled job ended %s", st.State)
	}
	cp, _ := LoadCheckpoint(filepath.Join(dir, "jobs", "fresh"), "fresh", spec.Hash())
	if cp == nil || cp.Cursor == 0 {
		t.Fatal("no checkpoint on disk after mid-flight cancel")
	}

	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st.State != StateQueued {
		t.Fatalf("resubmit state = %s, want %s", st.State, StateQueued)
	}
	if st.Done != cp.Cursor {
		t.Fatalf("resubmit reported done=%d, want checkpoint cursor %d", st.Done, cp.Cursor)
	}

	// The re-run's view must be live: no inherited ended flag, no stale
	// finished-series summaries from the cancelled attempt.
	s.mu.Lock()
	view := s.jobs["fresh"].view
	s.mu.Unlock()
	snap := view.Snapshot()
	if snap.Ended {
		t.Fatal("re-enqueued job's SSE view still reports ended")
	}
	if len(snap.Finished) != 0 {
		t.Fatalf("re-enqueued job's SSE view carries %d stale series summaries", len(snap.Finished))
	}
}

// TestServeSubmitBodyLimit: a submit body of exactly maxSubmitBytes is
// decoded and accepted; one byte more is refused with 413 naming the
// limit. The padding sits inside the JSON object, so the over-limit
// spec cannot be complete before the limit.
func TestServeSubmitBodyLimit(t *testing.T) {
	s, ts, _ := startServer(t, t.TempDir(), Config{Executors: 1})
	defer ts.Close()
	defer s.Stop()

	body := func(id string, size int) string {
		spec, err := json.Marshal(testSpec(t, id, 40, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		head := strings.TrimSuffix(string(spec), "}")
		return head + strings.Repeat(" ", size-len(head)-1) + "}"
	}
	post := func(b string) (int, string) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	if code, msg := post(body("at-limit", maxSubmitBytes)); code != http.StatusAccepted {
		t.Fatalf("body of exactly %d bytes: status %d (%s), want %d", maxSubmitBytes, code, msg, http.StatusAccepted)
	}
	code, msg := post(body("over-limit", maxSubmitBytes+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of %d bytes: status %d (%s), want %d", maxSubmitBytes+1, code, msg, http.StatusRequestEntityTooLarge)
	}
	if want := fmt.Sprintf("%d-byte", maxSubmitBytes); !strings.Contains(msg, want) {
		t.Errorf("413 body %q does not name the %s limit", msg, want)
	}
}
