package serve

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"dsr/internal/campaign"
	"dsr/internal/obs"
	"dsr/internal/telemetry"
)

// JobState is a job's lifecycle phase. queued and running are the
// non-terminal states a restarted daemon resumes; done, failed and
// cancelled are terminal.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire format of a job's state (GET /jobs, GET
// /jobs/{id}, and the body of every submit response).
type JobStatus struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	State    JobState `json:"state"`
	Runs     int      `json:"runs"`
	Done     int      `json:"done"`
	Priority int      `json:"priority,omitempty"`
	SpecHash string   `json:"spec_hash"`
	Error    string   `json:"error,omitempty"`
}

// Config configures a Server. The zero value of every field selects a
// sensible default except DataDir, which is required.
type Config struct {
	// DataDir is the persistent root; jobs live in DataDir/jobs/<id>/.
	DataDir string
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions beyond it get 429 with Retry-After. Default 64.
	QueueCap int
	// Executors is the number of concurrent job executors. Default 2.
	Executors int
	// CheckpointEvery is the number of merged runs between periodic
	// checkpoints. Default 50.
	CheckpointEvery int
	// Logf receives service log lines (default: discarded).
	Logf func(format string, args ...any)
}

// job is the in-memory state of one submitted campaign.
type job struct {
	spec      Spec
	hash      string
	name      string // program name, cached at creation (assembling is not free)
	seq       uint64
	heapIndex int // position in the pending heap, -1 when not queued

	state  JobState
	done   int
	errMsg string

	cancel     chan struct{} // closed to cancel; remade on resubmission
	cancelOnce *sync.Once
	userCancel bool // interrupt came from DELETE, not shutdown

	view   *obs.Campaign // per-job live SSE view; remade on resubmission
	tracer *telemetry.Tracer

	stateVer uint64     // bumped under s.mu by each snapshotLocked
	stateMu  sync.Mutex // serializes state.json writers, off s.mu
	wroteVer uint64     // newest snapshot persisted; guarded by stateMu
}

func (j *job) status() JobStatus {
	return JobStatus{
		ID: j.spec.ID, Name: j.name, State: j.state,
		Runs: j.spec.Runs, Done: j.done, Priority: j.spec.Priority,
		SpecHash: j.hash, Error: j.errMsg,
	}
}

// resetRun gives the job a fresh cancel channel, tracer and live view.
// Recreating the view on every (re-)enqueue matters: the previous
// attempt's view has published ended=true and its finished summaries,
// and SSE clients of the re-run must see live progress, not a
// terminated stale stream. Callers hold s.mu (or are single-threaded).
func (j *job) resetRun() {
	j.cancel = make(chan struct{})
	j.cancelOnce = new(sync.Once)
	j.userCancel = false
	j.tracer = telemetry.NewTracer()
	j.view = obs.NewCampaign(nil, j.tracer, j.spec.MBPTAOptions())
}

// Server is the dsrserve daemon core: a bounded persistent job queue
// in front of a pool of campaign executors, with an HTTP/JSON API for
// submission, inspection, SSE streaming, cancellation and metrics.
// Construction scans DataDir and re-enqueues every non-terminal job
// (resuming from its newest intact checkpoint), which is how the
// daemon survives crashes without losing or duplicating work.
type Server struct {
	cfg      Config
	registry *telemetry.Registry
	ln       net.Listener
	srv      *http.Server

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	pending  jobQueue
	seq      uint64
	stopping bool
	hard     bool
	wg       sync.WaitGroup
}

// New builds a Server over cfg.DataDir, recovers persisted jobs, and
// starts the executor pool. It does not listen; call Serve (or mount
// Handler on a listener of your own).
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:      cfg,
		registry: telemetry.NewRegistry(),
		jobs:     map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Executors; w++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// Serve binds addr (":0" picks a free port) and serves the job API in
// the background; Addr is valid once it returns.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return nil
}

// Addr returns the bound listen address (host:port); only valid after
// Serve.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stop shuts the daemon down gracefully: in-flight jobs are
// interrupted, their merged prefix is written as a final checkpoint,
// and they are re-marked queued on disk so the next daemon over the
// same DataDir resumes them. Idempotent.
func (s *Server) Stop() { s.shutdown(false) }

// Kill simulates a crash: executors are abandoned mid-job with no
// final checkpoint and no state rewrite — only the periodic
// checkpoints already on disk survive. The soak suite uses it to prove
// recovery is byte-identical from arbitrary kill points.
func (s *Server) Kill() { s.shutdown(true) }

func (s *Server) shutdown(hard bool) {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping, s.hard = true, hard
	// Interrupt every running job.
	for _, j := range s.jobs {
		if j.state == StateRunning {
			j.cancelOnce.Do(func() { close(j.cancel) })
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	if s.srv != nil {
		s.srv.Close()
	}
}

// Registry returns the service telemetry registry (per-job-labelled
// counters behind /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.registry }

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

// persistedState is the state.json payload: the durable slice of job
// bookkeeping (everything else is derivable from spec.json and the
// checkpoint).
type persistedState struct {
	State JobState `json:"state"`
	Seq   uint64   `json:"seq"`
	Done  int      `json:"done"`
	Error string   `json:"error,omitempty"`
}

// stateWrite is a state.json snapshot taken under s.mu, tagged with a
// per-job version so writes applied after the lock is released can
// never go backwards.
type stateWrite struct {
	ver uint64
	ps  persistedState
}

// snapshotLocked captures the durable slice of the job's bookkeeping;
// s.mu must be held (or the server not yet concurrent, as in recover).
func (j *job) snapshotLocked() stateWrite {
	j.stateVer++
	return stateWrite{
		ver: j.stateVer,
		ps:  persistedState{State: j.state, Seq: j.seq, Done: j.done, Error: j.errMsg},
	}
}

// persistState atomically writes a snapshot taken by snapshotLocked.
// It must be called with s.mu released: the file I/O rides on the
// per-job stateMu instead, so a slow or full disk stalls only this
// job's state writer, never the HTTP handlers or the merge path. A
// snapshot older than the newest one persisted is dropped.
func (s *Server) persistState(j *job, sw stateWrite) {
	j.stateMu.Lock()
	defer j.stateMu.Unlock()
	if sw.ver <= j.wroteVer {
		return
	}
	j.wroteVer = sw.ver
	b, err := json.Marshal(sw.ps)
	if err != nil {
		s.logf("serve: marshal state %s: %v", j.spec.ID, err)
		return
	}
	b = append(b, '\n')
	dir := s.jobDir(j.spec.ID)
	tmp := filepath.Join(dir, "state.json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "state.json"))
		if err != nil {
			s.logf("serve: persist state %s: %v", j.spec.ID, err)
		}
	} else {
		s.logf("serve: persist state %s: %v", j.spec.ID, err)
	}
}

// recover scans DataDir/jobs and rebuilds the in-memory job table: a
// terminal job is registered for inspection; a queued or running job —
// including one a crash left mid-flight — is re-enqueued and will
// resume from its newest intact checkpoint.
func (s *Server) recover() error {
	root := filepath.Join(s.cfg.DataDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: scan jobs: %w", err)
	}
	var recovered []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// Only directories the daemon itself could have created are job
		// dirs; anything else (in particular names that are not a safe
		// path segment) is never trusted as a job id.
		if !ValidID(e.Name()) {
			s.logf("serve: skip job dir %q: invalid job id", e.Name())
			continue
		}
		dir := filepath.Join(root, e.Name())
		sb, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			s.logf("serve: skip job dir %s: %v", e.Name(), err)
			continue
		}
		var spec Spec
		if err := json.Unmarshal(sb, &spec); err != nil {
			s.logf("serve: skip job dir %s: bad spec: %v", e.Name(), err)
			continue
		}
		spec.ID = e.Name()
		j := s.newJob(spec)
		j.state = StateQueued
		if pb, err := os.ReadFile(filepath.Join(dir, "state.json")); err == nil {
			var ps persistedState
			if err := json.Unmarshal(pb, &ps); err == nil {
				j.seq, j.done, j.errMsg = ps.Seq, ps.Done, ps.Error
				if ps.State.terminal() {
					j.state = ps.State
				}
			}
		}
		recovered = append(recovered, j)
	}
	// Preserve submission order for priority ties across restarts.
	sort.Slice(recovered, func(a, b int) bool { return recovered[a].seq < recovered[b].seq })
	for _, j := range recovered {
		if j.seq >= s.seq {
			s.seq = j.seq + 1
		}
		s.jobs[j.spec.ID] = j
		if !j.state.terminal() {
			j.state = StateQueued
			j.done = 0
			if cp, src := LoadCheckpoint(s.jobDir(j.spec.ID), j.spec.ID, j.hash); cp != nil {
				j.done = cp.Cursor
				if src != checkpointFile {
					s.logf("serve: job %s: current checkpoint corrupt, falling back to %s (cursor %d)",
						j.spec.ID, src, cp.Cursor)
				}
			}
			s.persistState(j, j.snapshotLocked())
			heap.Push(&s.pending, j)
			s.logf("serve: recovered job %s at run %d/%d", j.spec.ID, j.done, j.spec.Runs)
		}
	}
	return nil
}

// newJob builds the in-memory job for a validated spec. It assembles
// the program once to cache the name, so callers on the request path
// should invoke it before taking s.mu.
func (s *Server) newJob(spec Spec) *job {
	j := &job{
		spec:      spec,
		hash:      spec.Hash(),
		name:      spec.Name(),
		state:     StateQueued,
		heapIndex: -1,
	}
	j.resetRun()
	return j
}

// executor is one worker of the job pool: pop the highest-priority
// pending job, run it to a terminal state (or to an interruption),
// repeat until shutdown.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.stopping && s.pending.Len() == 0 {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*job)
		j.state = StateRunning
		s.registry.Gauge("dsrserve_queue_depth", nil).Set(float64(s.pending.Len()))
		sw := j.snapshotLocked()
		s.mu.Unlock()
		s.persistState(j, sw)
		s.runJob(j)
	}
}

// runJob executes one job end to end: load the newest checkpoint,
// resume the campaign through the shared runner, checkpoint
// periodically from the merge hook, and persist the terminal
// artifacts. The runner's Interrupt is the job's cancel channel, which
// shutdown also closes — so cancellation, graceful stop and kill all
// ride the same cooperative stop.
func (s *Server) runJob(j *job) {
	dir := s.jobDir(j.spec.ID)
	var resume []Point
	if cp, src := LoadCheckpoint(dir, j.spec.ID, j.hash); cp != nil {
		resume = cp.Points
		if src != checkpointFile {
			s.logf("serve: job %s: resuming from fallback checkpoint %s (cursor %d)", j.spec.ID, src, cp.Cursor)
		} else {
			s.logf("serve: job %s: resuming at run %d/%d", j.spec.ID, cp.Cursor, j.spec.Runs)
		}
	}

	merged := s.registry.Counter("dsrserve_runs_merged_total", telemetry.Labels{"job": j.spec.ID})
	progress := s.registry.Gauge("dsrserve_job_runs_done", telemetry.Labels{"job": j.spec.ID})
	// The merged prefix lives only in its JSON encoding, which every
	// checkpoint and points.json are written from; it is dropped when
	// the job returns.
	var pts encodedPoints
	lastCkpt := len(resume)
	hooks := Hooks{
		Interrupt: j.cancel,
		Tracer:    j.tracer,
		Observer:  j.view,
		OnPoint: func(pt Point) {
			pts.add(pt)
			merged.Inc()
			progress.Set(float64(pts.n))
			s.mu.Lock()
			j.done = pts.n
			s.mu.Unlock()
			if pts.n-lastCkpt >= s.cfg.CheckpointEvery {
				if err := s.checkpoint(j, &pts); err != nil {
					s.logf("serve: job %s: checkpoint: %v", j.spec.ID, err)
				} else {
					lastCkpt = pts.n
				}
			}
		},
	}

	out, err := Run(j.spec, resume, hooks)

	s.mu.Lock()
	hard := s.hard
	stopping := s.stopping
	userCancel := j.userCancel
	s.mu.Unlock()

	switch {
	case err == nil:
		s.finishJob(j, out, &pts, StateDone, "")
	case out != nil:
		// Analysis-stage failure (e.g. i.i.d. gate): the campaign itself
		// completed, so persist the partial artifacts alongside the error.
		s.finishJob(j, out, &pts, StateFailed, err.Error())
	case errors.Is(err, campaign.ErrInterrupted):
		if hard {
			// Crash simulation: leave the disk exactly as the periodic
			// checkpoints left it.
			return
		}
		if stopping && !userCancel {
			// Graceful shutdown: final checkpoint, back to queued on disk
			// so the next daemon resumes where we stopped.
			if err := s.checkpoint(j, &pts); err != nil {
				s.logf("serve: job %s: final checkpoint: %v", j.spec.ID, err)
			}
			s.mu.Lock()
			j.state = StateQueued
			sw := j.snapshotLocked()
			s.mu.Unlock()
			s.persistState(j, sw)
			s.logf("serve: job %s: suspended at run %d/%d", j.spec.ID, pts.n, j.spec.Runs)
			return
		}
		// Explicit cancellation. The view is captured under the lock: the
		// instant the state goes terminal a resubmission may swap in a
		// fresh view, and Done must land on the old one.
		s.mu.Lock()
		j.state = StateCancelled
		view := j.view
		sw := j.snapshotLocked()
		s.mu.Unlock()
		s.persistState(j, sw)
		view.Done()
		s.countTerminal(StateCancelled)
		s.logf("serve: job %s: cancelled at run %d/%d", j.spec.ID, pts.n, j.spec.Runs)
	default:
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = err.Error()
		view := j.view
		sw := j.snapshotLocked()
		s.mu.Unlock()
		s.persistState(j, sw)
		view.Done()
		s.countTerminal(StateFailed)
		s.logf("serve: job %s: failed: %v", j.spec.ID, err)
	}
}

// checkpoint snapshots the merged prefix.
func (s *Server) checkpoint(j *job, pts *encodedPoints) error {
	return writeCheckpoint(s.jobDir(j.spec.ID), j.spec.ID, j.hash, pts.n, pts.checkpointValue()...)
}

// finishJob persists a completed campaign's artifacts — points.json
// (from pts, the encoding of out.Points), report.txt (the exact bytes
// dsrrun would print), telemetry.jsonl — and marks the job terminal.
func (s *Server) finishJob(j *job, out *Outcome, pts *encodedPoints, state JobState, errMsg string) {
	dir := s.jobDir(j.spec.ID)
	write := func(name string, parts ...[]byte) {
		if err := writeFile(filepath.Join(dir, name), parts...); err != nil {
			s.logf("serve: job %s: write %s: %v", j.spec.ID, name, err)
		}
	}
	write("points.json", append(pts.array(), []byte("\n"))...)
	write("report.txt", []byte(FormatReport(out)))
	write("telemetry.jsonl", out.Telemetry)

	s.mu.Lock()
	j.state = state
	j.done = len(out.Points)
	j.errMsg = errMsg
	view := j.view
	sw := j.snapshotLocked()
	s.mu.Unlock()
	s.persistState(j, sw)
	view.Done()
	s.countTerminal(state)
	s.logf("serve: job %s: %s (%d runs)", j.spec.ID, state, len(out.Points))
}

func (s *Server) countTerminal(state JobState) {
	s.registry.Counter("dsrserve_jobs_finished_total", telemetry.Labels{"state": string(state)}).Inc()
}

// Handler returns the job API:
//
//	POST   /jobs               submit (202; 200 idempotent; 409 id
//	                           conflict; 400 invalid; 429 queue full)
//	GET    /jobs               list job statuses
//	GET    /jobs/{id}          job status
//	DELETE /jobs/{id}          cancel (also POST /jobs/{id}/cancel)
//	GET    /jobs/{id}/events   SSE live stream (obs fan-out)
//	GET    /jobs/{id}/report   rendered report (terminal jobs)
//	GET    /jobs/{id}/telemetry  telemetry JSONL (terminal jobs)
//	GET    /jobs/{id}/points   merged points JSON (terminal jobs)
//	GET    /metrics            Prometheus exposition, per-job labels
//	GET    /healthz            liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleArtifact("report.txt", "text/plain; charset=utf-8"))
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleArtifact("telemetry.jsonl", "application/jsonl"))
	mux.HandleFunc("GET /jobs/{id}/points", s.handleArtifact("points.json", "application/json"))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// maxSubmitBytes bounds a POST /jobs body. A spec is a small JSON
// document around the program source, so 1 MiB admits any realistic
// program; a larger body is refused with 413 before it is decoded.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds the %d-byte submit limit", maxSubmitBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hash := (&spec).Hash()
	// Off-lock preparation: building the job assembles the program (to
	// cache its name), and a resubmission's checkpoint cursor is read
	// from disk — neither belongs under s.mu. The cursor is what a
	// re-enqueued job reports as done until the executor starts
	// replaying; on a fresh submission no checkpoint exists and it is 0.
	j := s.newJob(spec)
	cursor := 0
	if spec.ID != "" {
		if cp, _ := LoadCheckpoint(s.jobDir(spec.ID), spec.ID, hash); cp != nil {
			cursor = cp.Cursor
		}
	}

	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if spec.ID != "" {
		if existing, ok := s.jobs[spec.ID]; ok {
			if existing.hash != hash {
				st := existing.status()
				s.mu.Unlock()
				writeJSON(w, http.StatusConflict, st)
				return
			}
			// Idempotent resubmission. A cancelled or failed job is
			// re-enqueued (resuming from any checkpoint it left — still
			// byte-identical); anything else just reports its status.
			if existing.state == StateCancelled || existing.state == StateFailed {
				s.enqueueAndRespond(w, existing, cursor, http.StatusAccepted)
				return
			}
			st := existing.status()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
	} else {
		for {
			id := fmt.Sprintf("job-%d", s.seq)
			s.seq++
			if _, ok := s.jobs[id]; !ok {
				j.spec.ID = id
				break
			}
		}
	}
	if s.pending.Len() >= s.cfg.QueueCap {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}

	dir := s.jobDir(j.spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sb, err := json.Marshal(j.spec)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "spec.json"), append(sb, '\n'), 0o644)
	}
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.jobs[j.spec.ID] = j
	s.registry.Counter("dsrserve_jobs_submitted_total", nil).Inc()
	s.enqueueAndRespond(w, j, cursor, http.StatusAccepted)
}

// enqueueAndRespond queues the job (s.mu held on entry), releases the
// lock, persists the queued state off-lock and answers the request.
func (s *Server) enqueueAndRespond(w http.ResponseWriter, j *job, cursor, code int) {
	st, sw, ok := s.enqueueLocked(j, cursor)
	s.mu.Unlock()
	if !ok {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}
	s.persistState(j, sw)
	writeJSON(w, code, st)
}

// enqueueLocked (re-)queues a job; s.mu must be held. Re-enqueued jobs
// get a fresh seq (they queue behind current submissions) and, via
// resetRun, a fresh cancel channel, tracer and live view — SSE clients
// of the re-run must not inherit the previous attempt's terminal
// stream. done (and its gauge) is reset to the checkpoint cursor the
// resumed run will replay. Returns the status for the response and the
// state snapshot the caller persists after releasing s.mu; ok=false
// means the queue is full.
func (s *Server) enqueueLocked(j *job, cursor int) (st JobStatus, sw stateWrite, ok bool) {
	if s.pending.Len() >= s.cfg.QueueCap {
		return JobStatus{}, stateWrite{}, false
	}
	j.state = StateQueued
	j.errMsg = ""
	j.done = cursor
	j.seq = s.seq
	s.seq++
	j.resetRun()
	s.registry.Gauge("dsrserve_job_runs_done", telemetry.Labels{"job": j.spec.ID}).Set(float64(cursor))
	heap.Push(&s.pending, j)
	s.registry.Gauge("dsrserve_queue_depth", nil).Set(float64(s.pending.Len()))
	s.cond.Signal()
	return j.status(), j.snapshotLocked(), true
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		list = append(list, j)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].seq < list[b].seq })
	statuses := make([]JobStatus, len(list))
	for i, j := range list {
		statuses[i] = j.status()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statuses)
}

// lookup resolves {id}, answering 404 itself when absent.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleCancel cancels a job: a queued job is removed from the heap
// immediately; a running one gets its interrupt closed and drains
// cooperatively. Cancelling a terminal job is a no-op (200 with the
// terminal status), so cancellation is idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	var sw stateWrite
	var view *obs.Campaign
	switch j.state {
	case StateQueued:
		if j.heapIndex >= 0 {
			heap.Remove(&s.pending, j.heapIndex)
			s.registry.Gauge("dsrserve_queue_depth", nil).Set(float64(s.pending.Len()))
		}
		j.state = StateCancelled
		sw = j.snapshotLocked()
		view = j.view
		s.countTerminalLockedOK(StateCancelled)
	case StateRunning:
		j.userCancel = true
		j.cancelOnce.Do(func() { close(j.cancel) })
	}
	st := j.status()
	s.mu.Unlock()
	if view != nil {
		s.persistState(j, sw)
		view.Done()
	}
	writeJSON(w, http.StatusOK, st)
}

// countTerminalLockedOK is countTerminal for call sites already under
// s.mu (the registry takes only its own locks, so this is safe; the
// name just documents the intent).
func (s *Server) countTerminalLockedOK(state JobState) {
	s.registry.Counter("dsrserve_jobs_finished_total", telemetry.Labels{"state": string(state)}).Inc()
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	// The view is read under s.mu: a resubmission swaps in a fresh one.
	s.mu.Lock()
	view := j.view
	s.mu.Unlock()
	obs.ServeEvents(view, w, r)
}

// handleArtifact serves a terminal artifact file from the job dir; 404
// until the executor has written it.
func (s *Server) handleArtifact(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		b, err := os.ReadFile(filepath.Join(s.jobDir(j.spec.ID), name))
		if err != nil {
			http.Error(w, "artifact not available", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b) //nolint:errcheck // client gone
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	d := &telemetry.Dump{Metrics: s.registry.Snapshot()}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
