package serve

import (
	"bytes"
	"fmt"
	"strings"

	"dsr/internal/asm"
	"dsr/internal/campaign"
	"dsr/internal/mbpta"
	"dsr/internal/mem"
	"dsr/internal/platform"
	"dsr/internal/prog"
	"dsr/internal/rvs"
	"dsr/internal/telemetry"
	"dsr/internal/workload"
)

// Point is one merged campaign run — the unit the service checkpoints
// and replays. Every field is a pure function of (Spec, Index), which
// is what makes a checkpointed prefix resumable byte-identically: the
// runner rebuilds the telemetry dump, the MBPTA stream and the
// aggregate attribution from Points alone.
type Point struct {
	// Index is the canonical run index.
	Index int `json:"i"`
	// Seed is the schedule-derived layout seed of this run.
	Seed uint64 `json:"seed"`
	// Cycles is the run's total execution time.
	Cycles mem.Cycles `json:"cycles"`
	// UoA is the instrumented unit-of-analysis duration (ipoints 1→2),
	// zero when the program carries no instrumentation points.
	UoA float64 `json:"uoa,omitempty"`
	// Attr is the per-run cycle attribution (zero Valid when the
	// profiler is disabled).
	Attr telemetry.AttributionSnapshot `json:"attr"`
}

// RunObserver is the live-introspection feed of a running job; it is
// satisfied by *obs.Campaign. Calls arrive from the merge goroutine in
// canonical order; observation is strictly one-way.
type RunObserver interface {
	BeginSeries(series string, total int)
	ObserveRun(series string, index int, uoa float64)
	EndSeries(series string)
}

// Hooks is the runner's observation and control surface. Every field
// is optional; the zero value runs the campaign exactly as the dsrrun
// CLI does.
type Hooks struct {
	// OnPoint is called for every merged point — replayed checkpoint
	// points first, then fresh merges — in canonical order on the merge
	// goroutine. The service's checkpointer lives here.
	OnPoint func(Point)
	// Interrupt requests a cooperative stop (cancellation, shutdown);
	// Run then returns campaign.ErrInterrupted.
	Interrupt <-chan struct{}
	// Tracer records host wall-time worker spans (never part of the
	// deterministic output).
	Tracer *telemetry.Tracer
	// Observer receives the live progress feed (SSE views).
	Observer RunObserver
}

// Outcome is everything a finished campaign emits: the surfaces the
// determinism suite compares byte for byte between the CLI and service
// paths.
type Outcome struct {
	Spec Spec
	// Name is the measured program's name (the series label).
	Name string
	// Points are the merged runs in canonical order.
	Points []Point
	// Times is the MBPTA stream ingestion series (execution times in
	// canonical order) — the analysis input.
	Times []float64
	// Attribution is the campaign-aggregate cycle attribution.
	Attribution telemetry.AttributionSnapshot
	// Report is the MBPTA analysis (non-nil even when the analysis
	// gate rejects; Fit is nil in that case).
	Report *mbpta.Report
	// Telemetry is the full telemetry export as JSONL: per-run metrics,
	// histograms and campaign-clock event spans.
	Telemetry []byte
}

// maxReservedPoints caps the Points capacity Run reserves up front.
const maxReservedPoints = 4096

// Run executes a campaign job: the single code path behind both the
// dsrrun CLI campaign mode and the dsrserve job executor, which is
// what makes their outputs byte-identical by construction.
//
// resume, when non-empty, is the contiguous canonical prefix of
// already-merged points from a checkpoint; the runner replays it
// through every output surface (stream, telemetry, observer, OnPoint)
// and then executes only the remaining indices. Because each run is a
// pure function of (Spec, index), the final Outcome is byte-identical
// to an uninterrupted execution.
//
// On interruption Run returns campaign.ErrInterrupted with a nil
// Outcome — the merged prefix has already reached the caller through
// Hooks.OnPoint. On an analysis-stage error (e.g. the i.i.d. gate
// rejecting) Run returns the partial Outcome alongside the error.
func Run(spec Spec, resume []Point, h Hooks) (*Outcome, error) {
	for k, pt := range resume {
		if pt.Index != k {
			return nil, fmt.Errorf("serve: resume prefix not contiguous: point %d has index %d", k, pt.Index)
		}
	}
	if len(resume) > spec.Runs {
		return nil, fmt.Errorf("serve: resume prefix of %d runs exceeds campaign size %d", len(resume), spec.Runs)
	}
	p, err := asm.Assemble(spec.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: assemble: %w", err)
	}

	stream := mbpta.NewStream(spec.MBPTAOptions())
	camp := telemetry.NewCampaign(0)
	// Runs is bounded only from below, so an untrusted spec must not
	// size an allocation: reserve up to a paper-scale campaign and let
	// append grow a larger one as its points actually merge.
	out := &Outcome{Spec: spec, Name: p.Name, Points: make([]Point, 0, min(spec.Runs, maxReservedPoints))}
	record := func(pt Point) {
		out.Points = append(out.Points, pt)
		stream.Observe(float64(pt.Cycles))
		out.Attribution.Add(pt.Attr)
		camp.RecordRun(telemetry.RunRecord{
			Series: p.Name, Index: pt.Index, Seed: pt.Seed,
			Cycles: pt.Cycles, UoA: pt.UoA, Attribution: pt.Attr,
		})
		if h.Observer != nil {
			h.Observer.ObserveRun(p.Name, pt.Index, float64(pt.Cycles))
		}
		if h.OnPoint != nil {
			h.OnPoint(pt)
		}
	}

	if h.Observer != nil {
		h.Observer.BeginSeries(p.Name, spec.Runs)
	}
	for _, pt := range resume {
		record(pt)
	}

	// Worker-private program, platform and DSR runtime; the job has no
	// input vector and no golden model to check against.
	wl := workload.Workload{
		Build:       func() (*prog.Program, error) { return asm.Assemble(spec.Source) },
		Platform:    platform.ProximaLEON3(),
		Layout:      workload.DSR,
		Seed:        campaign.NewSchedule(spec.Seed).Seed,
		Attribution: spec.Attribution,
		Tracer:      h.Tracer,
	}
	err = campaign.Execute(
		campaign.Config{
			Runs: spec.Runs, First: len(resume), Workers: spec.Workers,
			Interrupt: h.Interrupt, Tracer: h.Tracer,
		},
		func(w int) (campaign.RunFunc[Point], error) {
			wh, err := wl.Host(w)
			if err != nil {
				return nil, err
			}
			return func(i int) (Point, error) {
				if err := wh.Activate(uint64(i)); err != nil {
					return Point{}, err
				}
				res, err := wh.Run()
				if err != nil {
					return Point{}, err
				}
				pt := Point{Index: i, Seed: wh.Seed(), Cycles: res.Cycles, Attr: res.Attribution}
				if ds := rvs.Durations(res.Trace, 1, 2); len(ds) > 0 {
					pt.UoA = float64(ds[0])
				}
				return pt, nil
			}, nil
		},
		func(i int, pt Point) error {
			record(pt)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if h.Observer != nil {
		h.Observer.EndSeries(p.Name)
	}

	out.Times = append([]float64(nil), stream.Times()...)
	var tbuf bytes.Buffer
	if err := camp.Dump().WriteJSONL(&tbuf); err != nil {
		return nil, fmt.Errorf("serve: telemetry export: %w", err)
	}
	out.Telemetry = tbuf.Bytes()

	rep, aerr := stream.Report()
	out.Report = rep
	if aerr != nil {
		return out, fmt.Errorf("serve: analysis: %w", aerr)
	}
	return out, nil
}

// FormatReport renders the campaign analysis exactly as the dsrrun CLI
// prints it — the byte-identity surface the serve-smoke gate compares
// against a real dsrrun invocation. A partial outcome (analysis gate
// rejected) renders what it has, mirroring the CLI's output before it
// exits non-zero.
func FormatReport(o *Outcome) string {
	var b strings.Builder
	if o.Attribution.Valid {
		b.WriteString(o.Attribution.Render())
		b.WriteString("\n")
	}
	rep := o.Report
	if rep == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "%s under DSR, %d runs: min=%.0f mean=%.0f MOET=%.0f\n",
		o.Name, rep.N, rep.Min, rep.Mean, rep.MOET)
	fmt.Fprintf(&b, "i.i.d.: Ljung-Box p=%.4f, KS p=%.4f\n",
		rep.IID.LjungBox.PValue, rep.IID.KS.PValue)
	if rep.Fit == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "pWCET @ %.0e = %.0f cycles (+%.2f%% over MOET)\n\n",
		rep.TargetExceedance, rep.PWCET, (rep.PWCET/rep.MOET-1)*100)
	b.WriteString(rvs.RenderCurve(rep, o.Times, 72, 18))
	return b.String()
}
