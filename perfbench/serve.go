package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dsr/internal/analysis"
	"dsr/internal/asm"
	"dsr/internal/campaign"
	"dsr/internal/core"
	"dsr/internal/mbpta"
	"dsr/internal/platform"
	"dsr/internal/serve"
)

// serve_jobs: an in-process dsrserve (default executors, its own data
// directory) over loopback, loaded by a closed loop of nproc clients.
// In each round every client submits a paper-scale job of the uoa.s
// program (attribution on, one campaign worker), waits for it and
// fetches its report; the round ends with the last report. The jobs
// cycle through a pool of specPool specs derived from the seed, each
// under a fresh job id. The server keys jobs by id only, so a repeated
// spec costs what a new one does, and every job's report is checked
// against the reference for its spec.

// segmentRounds is how many rounds one server serves before the run
// replaces it with a fresh one. The server keeps every finished job in
// memory, so a fixed segment keeps the peak RSS a property of the
// server rather than of how many jobs the run had time for.
const segmentRounds = 16

// setupSamples is how many server set-ups a run times before its
// load starts.
const setupSamples = 25

// pollInterval is how often a waiting client polls its job's status.
const pollInterval = 5 * time.Millisecond

// serveSpecs is the seed's pool of job specs.
func serveSpecs(b *bench) ([]serve.Spec, error) {
	src, err := os.ReadFile(filepath.Join(b.root, "internal", "asm", "testdata", "uoa.s"))
	if err != nil {
		return nil, err
	}
	specs := make([]serve.Spec, b.size.specPool)
	for k := range specs {
		specs[k] = serve.Spec{
			Source: string(src), Runs: b.size.serveRuns, Seed: mix(b.seed, 4+uint64(k)),
			Workers: 1, Attribution: true,
		}
	}
	return specs, nil
}

// jobResult is what the service answered for one job.
type jobResult struct {
	state  serve.JobState
	report []byte
}

func (j jobResult) equal(o jobResult) bool {
	return j.state == o.state && bytes.Equal(j.report, o.report)
}

// server is an in-process dsrserve listening on loopback.
type server struct {
	*serve.Server
	client *serve.Client
}

// startServer brings a dsrserve up on a fresh data directory under dir.
// The directory stays until the run ends: deleting a stopped server's
// job files mid-run would put their file-system churn into the next
// server's set-up time.
func startServer(dir string) (*server, error) {
	data, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: data})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		srv.Stop()
		return nil, err
	}
	return &server{srv, &serve.Client{Base: "http://" + srv.Addr()}}, nil
}

// serverSetup times one server set-up: serve.New on an empty data
// directory, Serve on loopback, the first request answered, and the
// admission check every submission runs (spec.Validate: assemble, DSR
// pass, transform verification). The check is made here rather than
// through a submission because a submitted job starts running at once
// and would race the measurement for the CPU.
func serverSetup(dir string, spec serve.Spec) (time.Duration, error) {
	start := time.Now()
	srv, err := startServer(dir)
	if err != nil {
		return 0, err
	}
	defer srv.Stop()
	var se *serve.StatusError
	if _, err := srv.client.Status("ready"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		return 0, fmt.Errorf("readiness probe: want 404, got %v", err)
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// runJob submits spec under id, waits for the job to end and fetches
// its report.
func runJob(c *serve.Client, spec serve.Spec, id string) (jobResult, error) {
	spec.ID = id
	if _, err := c.Submit(spec); err != nil {
		return jobResult{}, err
	}
	st, err := c.Wait(id, pollInterval)
	if err != nil {
		return jobResult{}, err
	}
	rep, err := c.Report(id)
	if err != nil {
		return jobResult{}, fmt.Errorf("job %s ended %s: %s: %w", id, st.State, st.Error, err)
	}
	return jobResult{st.State, rep}, nil
}

// referenceJob is what the service must answer for spec: serve.Run,
// the code path the dsrrun CLI shares, rendered as the report. An
// analysis-stage refusal (the i.i.d. gate) fails the job with its
// partial report; that is the reference too.
func referenceJob(spec serve.Spec) (jobResult, *serve.Outcome, error) {
	out, err := serve.Run(spec, nil, serve.Hooks{})
	if out == nil {
		return jobResult{}, nil, err
	}
	return answerOf(out, err), out, nil
}

// answerOf is the answer the service gives for a campaign serve.Run
// completed with the given analysis error.
func answerOf(out *serve.Outcome, err error) jobResult {
	state := serve.StateDone
	if err != nil {
		state = serve.StateFailed
	}
	return jobResult{state, []byte(serve.FormatReport(out))}
}

// serveReferences computes every pool spec's reference at one worker,
// checks it against the same job run at nproc workers, and returns the
// references with the pool's digest.
func serveReferences(b *bench, specs []serve.Spec) ([]jobResult, []*serve.Outcome, string, error) {
	refs := make([]jobResult, len(specs))
	outs := make([]*serve.Outcome, len(specs))
	d := newDigest()
	for k, spec := range specs {
		var err error
		refs[k], outs[k], err = referenceJob(spec)
		b.attempted++
		if err != nil {
			return nil, nil, "", fmt.Errorf("reference job %d: %w", k, err)
		}
		wide := spec
		wide.Workers = b.workers
		got, _, err := referenceJob(wide)
		b.attempted++
		if err != nil || !got.equal(refs[k]) {
			b.fail(1, "spec %d: report at %d workers differs from 1 worker (%v)", k, b.workers, err)
		}
		d.add("spec %d state=%s", k, refs[k].state)
		d.add("%s", refs[k].report)
	}
	return refs, outs, d.sum(), nil
}

func serveE2E(b *bench) (map[string]metric, string, error) {
	specs, err := serveSpecs(b)
	if err != nil {
		return nil, "", err
	}
	var r e2eRun
	// Time the set-ups on a quiet disk: flush what earlier processes
	// left to write first.
	syscall.Sync()
	for i := 0; i < setupSamples; i++ {
		d, err := serverSetup(b.scratch, specs[0])
		if err != nil {
			return nil, "", err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	type answer struct {
		spec int
		res  jobResult
	}
	var answers []answer
	var srv *server
	round := 0
	err = r.measure(b.measure, func() error {
		if round%segmentRounds == 0 {
			if srv != nil {
				srv.Stop()
			}
			var err error
			if srv, err = startServer(b.scratch); err != nil {
				return err
			}
		}
		res := make([]jobResult, b.workers)
		errs := make([]error, b.workers)
		lat := make([]time.Duration, b.workers)
		var wg sync.WaitGroup
		for c := 0; c < b.workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				start := time.Now()
				res[c], errs[c] = runJob(srv.client, specs[(round*b.workers+c)%len(specs)], fmt.Sprintf("r%d-c%d", round, c))
				lat[c] = time.Since(start)
			}(c)
		}
		wg.Wait()
		for c := range res {
			b.attempted++
			if errs[c] != nil {
				b.fail(1, "job r%d-c%d: %v", round, c, errs[c])
				continue
			}
			r.jobs = append(r.jobs, 1e3*lat[c].Seconds())
			answers = append(answers, answer{(round*b.workers + c) % len(specs), res[c]})
		}
		round++
		return nil
	})
	if srv != nil {
		srv.Stop()
	}
	if err != nil {
		return nil, "", err
	}

	refs, outs, want, err := serveReferences(b, specs)
	if err != nil {
		return nil, "", err
	}
	// Reports carry no counters, so a job's instructions come from the
	// replica of its campaign, whose cycles must match the job's too.
	instr := make([]uint64, len(specs))
	for k, spec := range specs {
		t, err := serveReplica(nil, spec, outs[k])
		b.attempted++
		if err != nil {
			b.fail(1, "replica of spec %d: %v", k, err)
		}
		instr[k] = t.instr
	}
	for _, a := range answers {
		if !a.res.equal(refs[a.spec]) {
			b.fail(1, "a job of spec %d answered differently from its reference", a.spec)
			continue
		}
		r.runs += specs[a.spec].Runs
		r.instr += float64(instr[a.spec])
	}
	return r.metrics(), want, nil
}

func serveTraced(b *bench) (map[string]metric, string, error) {
	specs, err := serveSpecs(b)
	if err != nil {
		return nil, "", err
	}
	refs, outs, want, err := serveReferences(b, specs)
	if err != nil {
		return nil, "", err
	}
	srv, err := startServer(b.scratch)
	if err != nil {
		return nil, "", err
	}
	defer srv.Stop()
	ckpt, err := os.MkdirTemp(b.scratch, "checkpoint-")
	if err != nil {
		return nil, "", err
	}

	n := 0
	var t tally
	var ckptBytes int64
	round := func(tr *tracer) {
		k := n % len(specs)
		tt, size, err := serveRound(tr, srv.client, specs[k], refs[k], outs[k], fmt.Sprintf("t%d", n), ckpt)
		n++
		b.attempted++
		if err != nil {
			b.fail(1, "replayed serve round of spec %d: %v", k, err)
			return
		}
		t, ckptBytes = tt, size
	}
	rounds, untraced, gc, err := traceRounds(b.measure, func(tr *tracer) error {
		round(tr)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	b.accounting(rounds, untraced)
	m := layerMetrics(rounds, gc, t, untraced)
	m["serve.checkpoint_bytes"] = metric{float64(ckptBytes), "bytes"}
	return m, want, nil
}

// serveRound replays one job through each public entry point of the
// service path in turn, checking every answer against the spec's
// reference: the job over HTTP, the spec's validation, serve.Run with
// and without attribution, a checkpoint of its points, the campaign
// worker it runs, and the MBPTA report it ends with.
func serveRound(tr *tracer, cl *serve.Client, spec serve.Spec, ref jobResult, refOut *serve.Outcome, id, ckpt string) (tally, int64, error) {
	tr.begin("serve.job")
	got, err := runJob(cl, spec, id)
	tr.end()
	if err != nil {
		return tally{}, 0, err
	}
	if !got.equal(ref) {
		return tally{}, 0, fmt.Errorf("job %s answered differently from serve.Run", id)
	}

	if err := validate(tr, spec); err != nil {
		return tally{}, 0, err
	}

	tr.begin("serve.run")
	out, err := serve.Run(spec, nil, serve.Hooks{})
	tr.end()
	if out == nil {
		return tally{}, 0, err
	}
	if !answerOf(out, err).equal(ref) {
		return tally{}, 0, fmt.Errorf("serve.Run answered differently from the reference")
	}
	noAttr := spec
	noAttr.Attribution = false
	tr.begin("serve.run_noattr")
	outNoAttr, err := serve.Run(noAttr, nil, serve.Hooks{})
	tr.end()
	if outNoAttr == nil {
		return tally{}, 0, err
	}

	cp := serve.Checkpoint{Job: id, SpecHash: spec.Hash(), Cursor: len(out.Points), Points: out.Points}
	tr.begin("serve.checkpoint")
	err = serve.WriteCheckpoint(ckpt, cp)
	tr.end()
	if err != nil {
		return tally{}, 0, err
	}
	fi, err := os.Stat(filepath.Join(ckpt, "checkpoint.json"))
	if err != nil {
		return tally{}, 0, err
	}

	t, err := serveReplica(tr, spec, out)
	if err != nil {
		return tally{}, 0, err
	}

	tr.begin("mbpta")
	rep, _ := mbpta.Analyse(out.Times, spec.MBPTAOptions())
	tr.end()
	if rep == nil || refOut.Report == nil || rep.PWCET != refOut.Report.PWCET || rep.IID != refOut.Report.IID {
		return tally{}, 0, fmt.Errorf("MBPTA over the job's times differs from its report")
	}
	return t, fi.Size(), nil
}

// validate mirrors serve.Spec.Validate, the admission check of every
// submission: assemble, DSR transform, transform verification.
func validate(tr *tracer, spec serve.Spec) error {
	tr.begin("serve.validate")
	defer tr.end()
	tr.begin("asm")
	p, err := asm.Assemble(spec.Source)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("platform.boot")
	plat := platform.New(platform.ProximaLEON3())
	tr.end()
	tr.begin("core.transform")
	rt, err := core.NewRuntime(p, plat, core.Options{})
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("core.verify")
	diags := analysis.VerifyTransform(p, rt.Program(), analysis.TransformInfo{
		FTableSym: core.FTableSym, OffsetsSym: core.OffsetsSym, Funcs: rt.Metadata().Funcs,
	})
	tr.end()
	if analysis.HasErrors(diags) {
		return fmt.Errorf("transform verification: %v", analysis.Errors(diags)[0])
	}
	return nil
}

// serveReplica mirrors the campaign worker of serve.Run — a worker-
// private program, platform (attribution as the spec asks) and DSR
// runtime, rebooted with the run's schedule seed before every run —
// and checks every run's cycles against the job's points.
func serveReplica(tr *tracer, spec serve.Spec, out *serve.Outcome) (tally, error) {
	sched := campaign.NewSchedule(spec.Seed)
	var t tally
	recs, err := replay(tr, spec.Runs, 1, func() (func(int) (runRec, error), error) {
		tr.begin("asm")
		p, err := asm.Assemble(spec.Source)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("platform.boot")
		plat := platform.New(platform.ProximaLEON3())
		if spec.Attribution {
			plat.EnableAttribution()
		}
		tr.end()
		tr.begin("core.transform")
		rt, err := core.NewRuntime(p, plat, core.Options{})
		tr.end()
		if err != nil {
			return nil, err
		}
		return func(i int) (runRec, error) {
			tr.begin("core.reboot")
			bs, err := rt.Reboot(sched.Seed(i))
			tr.end()
			if err != nil {
				return runRec{}, err
			}
			tr.begin("cpu.exec")
			res, err := rt.Run()
			tr.end()
			return runRec{cycles: uint64(res.Cycles), pmcs: res.PMCs, rebooted: true, relocated: uint64(bs.RelocatedBytes)}, err
		}, nil
	})
	if err != nil {
		return t, err
	}
	tr.begin("bench.digest")
	defer tr.end()
	for i, r := range recs {
		if r.cycles != uint64(out.Points[i].Cycles) {
			return t, fmt.Errorf("replica run %d: %d cycles, serve.Run %d", i, r.cycles, out.Points[i].Cycles)
		}
		t.addRun(r)
	}
	return t, nil
}
