// Command dsrrun assembles a program written in the simulator's
// assembly syntax (see internal/asm) and executes it on the PROXIMA
// LEON3 platform — once on the deterministic baseline, or as a full DSR
// measurement campaign with MBPTA analysis.
//
//	dsrrun prog.s                  run once, print cycles and counters
//	dsrrun -disasm prog.s          dump the assembled program
//	dsrrun -dsr -runs 500 prog.s   DSR campaign + pWCET analysis
//	dsrrun -telemetry prog.s       also print the per-component cycle
//	                               attribution (single run or campaign)
//	dsrrun -progress -dsr prog.s   per-run campaign progress on stderr
//	dsrrun -http :0 -dsr prog.s    serve live campaign introspection
//	                               (/metrics, /campaign, /events SSE,
//	                               /debug/pprof) while the campaign runs
//	dsrrun -dsr -submit URL prog.s submit the campaign to a dsrserve
//	                               daemon, wait, and print the report —
//	                               byte-identical to running it locally
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dsr/internal/analysis"
	"dsr/internal/asm"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/obs"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/rvs"
	"dsr/internal/serve"
	"dsr/internal/telemetry"
)

func main() {
	var (
		useDSR   = flag.Bool("dsr", false, "run a DSR measurement campaign instead of a single run")
		runs     = flag.Int("runs", 500, "campaign size with -dsr")
		seed     = flag.Uint64("seed", 1, "base layout seed with -dsr")
		workers  = flag.Int("workers", 0, "campaign worker-pool size with -dsr: 0 = one per CPU, 1 = sequential; output is identical for every value")
		disasm   = flag.Bool("disasm", false, "print the assembled program and exit")
		telem    = flag.Bool("telemetry", false, "enable cycle attribution and print the per-component split")
		progress = flag.Bool("progress", false, "print per-run campaign progress to stderr")
		httpAddr = flag.String("http", "", "with -dsr: serve live observability on this address (\":0\" picks a free port)")
		submit   = flag.String("submit", "", "with -dsr: submit the campaign to a dsrserve daemon at this base URL instead of running locally")
		jobID    = flag.String("job", "", "with -submit: client-chosen job id (idempotency key)")
		priority = flag.Int("priority", 0, "with -submit: job priority (higher runs sooner)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dsrrun [-dsr] [-runs N] [-disasm] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	die(err)
	p, err := asm.Assemble(string(src))
	die(err)

	if *disasm {
		dump(p)
		return
	}

	if !*useDSR {
		img, err := loader.Load(p, loader.DefaultSequentialConfig())
		die(err)
		plat := platform.New(platform.ProximaLEON3())
		if *telem {
			plat.EnableAttribution()
		}
		plat.LoadImage(img)
		res, err := plat.Run()
		die(err)
		fmt.Printf("%s: %d cycles, %%o0=%d (0x%x)\n", p.Name, res.Cycles, res.ExitValue, res.ExitValue)
		if *telem {
			die(rvs.WriteCounterSummary(os.Stdout, p.Name, res.PMCs, res.Attribution))
		} else {
			fmt.Printf("  instr=%d fpu=%d icmiss=%d dcmiss=%d l2miss=%d\n",
				res.PMCs.Instr, res.PMCs.FPU, res.PMCs.ICMiss, res.PMCs.DCMiss, res.PMCs.L2Miss)
		}
		return
	}

	spec := serve.Spec{
		ID: *jobID, Source: string(src), Runs: *runs, Seed: *seed,
		Workers: *workers, Priority: *priority, Attribution: *telem,
	}

	if *submit != "" {
		submitCampaign(&spec, *submit)
		return
	}

	// Verify the DSR transformation before measuring anything: a
	// malformed rewrite would corrupt the campaign silently.
	tp, meta, _, err := core.Transform(p)
	die(err)
	verify := analysis.VerifyTransform(p, tp, meta.TransformInfo())
	if analysis.HasErrors(verify) {
		for _, d := range analysis.Errors(verify) {
			fmt.Fprintln(os.Stderr, "dsrrun:", d)
		}
		fmt.Fprintln(os.Stderr, "dsrrun: DSR transform verification failed; refusing to run the campaign")
		os.Exit(1)
	}

	// The campaign proper runs on serve.Run — the same runner behind the
	// dsrserve daemon, so CLI and service outputs are byte-identical by
	// construction: per-run seeds come from the splittable schedule (a
	// pure function of -seed and the run index), every worker owns a
	// private platform + runtime, and the merge streams execution times
	// into the MBPTA stream in canonical run order — identical at every
	// -workers value.
	//
	// Live introspection is strictly one-way: the tracer records
	// host-side per-worker timelines and the observer feeds the HTTP
	// view; neither changes what the campaign computes.
	var (
		tracer *telemetry.Tracer
		view   *obs.Campaign
	)
	if *httpAddr != "" {
		tracer = telemetry.NewTracer()
		view = obs.NewCampaign(nil, tracer, spec.MBPTAOptions())
		srv, err := obs.Serve(*httpAddr, view)
		die(err)
		defer srv.Close()
		defer view.Done()
		fmt.Fprintf(os.Stderr, "observability server on http://%s (campaign, events, pprof)\n", srv.Addr())
	}

	out, err := serve.Run(spec, nil, serve.Hooks{
		Tracer:   tracer,
		Observer: view,
		OnPoint: func(pt serve.Point) {
			if *progress && ((pt.Index+1)%50 == 0 || pt.Index+1 == *runs) {
				fmt.Fprintf(os.Stderr, "  %s: %d/%d runs\r", p.Name, pt.Index+1, *runs)
				if pt.Index+1 == *runs {
					fmt.Fprintln(os.Stderr)
				}
			}
		},
	})
	if out != nil {
		fmt.Print(serve.FormatReport(out))
	}
	die(err)
}

// submitCampaign runs the campaign remotely: submit to the daemon,
// back off on queue-full, wait for a terminal state and print the
// report the daemon rendered — the same bytes the local path prints.
func submitCampaign(spec *serve.Spec, base string) {
	cl := &serve.Client{Base: base}
	var st serve.JobStatus
	for {
		var err error
		st, err = cl.Submit(*spec)
		var se *serve.StatusError
		if errors.As(err, &se) && se.Code == 429 {
			wait := se.RetryAfter
			if wait <= 0 {
				wait = 1
			}
			fmt.Fprintf(os.Stderr, "dsrrun: queue full, retrying in %ds\n", wait)
			time.Sleep(time.Duration(wait) * time.Second)
			continue
		}
		die(err)
		break
	}
	fmt.Fprintf(os.Stderr, "submitted job %s to %s\n", st.ID, base)
	st, err := cl.Wait(st.ID, 0)
	die(err)
	// A failed job may still have a partial report (analysis-stage
	// rejection), mirroring what the local path prints before exiting.
	rep, rerr := cl.Report(st.ID)
	if rerr == nil {
		os.Stdout.Write(rep) //nolint:errcheck // terminal write
	}
	if st.State != serve.StateDone {
		die(fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	}
	die(rerr)
}

func dump(p *prog.Program) {
	fmt.Printf(".program %s\n.entry %s\n", p.Name, p.Entry)
	for _, d := range p.Data {
		fmt.Printf(".data %s size=%d align=%d", d.Name, d.Size, d.Align)
		if len(d.Init) > 0 {
			fmt.Printf("  ; %d init words", len(d.Init))
		}
		fmt.Println()
	}
	for _, f := range p.Functions {
		if f.Leaf {
			fmt.Printf("\n.leaf %s\n", f.Name)
		} else {
			fmt.Printf("\n.func %s frame=%d\n", f.Name, f.FrameSize)
		}
		for i := range f.Code {
			fmt.Printf("    %s\n", f.Code[i].String())
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrrun:", err)
		os.Exit(1)
	}
}
