// Command dsrlint runs the static-analysis and lint framework
// (internal/analysis) over a program: the standard lint passes
// (reserved registers, return shapes, alignment, frame conventions,
// unreachable code, dead stores), the static stack/window bound, the
// L2 layout conflict lint, and — with -dsr — the differential DSR
// transform verifier over the core.Transform output.
//
//	dsrlint prog.s                 lint an assembly source
//	dsrlint -builtin control       lint a built-in program (control,
//	                               processing)
//	dsrlint -dsr prog.s            also verify the DSR transformation
//	dsrlint -stack prog.s          print the static stack bounds
//	dsrlint -wcet prog.s           also run the static WCET analyzer
//	dsrlint -leak prog.s           also run the static side-channel
//	                               leakage analyzer
//	dsrlint -json prog.s           emit diagnostics as a stable JSON
//	                               document (schema: analysis.ReportJSON)
//	dsrlint -Werror prog.s         treat warnings as errors for the exit
//	                               status
//
// Exit status: 0 when no Error-level diagnostic was produced (under
// -Werror: no Warning either), 1 otherwise, 2 on usage or input errors
// — so it can gate a build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dsr/internal/analysis"
	"dsr/internal/analysis/leak"
	"dsr/internal/analysis/wcet"
	"dsr/internal/cliprog"
	"dsr/internal/core"
	"dsr/internal/loader"
	"dsr/internal/platform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable seam: flags and positional
// arguments in, diagnostics out on the writers, and the process exit
// status as the return value (0 clean, 1 findings, 2 usage/input).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin     = fs.String("builtin", "", "lint a built-in program instead of a source file: control | processing")
		dsr         = fs.Bool("dsr", true, "run the DSR transform verifier over the core.Transform output")
		maxOverhead = fs.Float64("max-overhead", 0, "reject DSR static instruction overhead above this fraction (0 disables; the paper's budget is 0.02)")
		l2          = fs.Bool("l2", true, "run the static L2 layout conflict lint on the sequential placement")
		l2MinFrac   = fs.Float64("l2-minfrac", 0.5, "report L2 conflicts above this overlap fraction")
		stack       = fs.Bool("stack", false, "print the static call-depth/stack/window bounds")
		runWcet     = fs.Bool("wcet", false, "run the static WCET analyzer and report its bound and diagnostics")
		runLeak     = fs.Bool("leak", false, "run the static side-channel leakage analyzer and report its channel bounds")
		jsonOut     = fs.Bool("json", false, "emit diagnostics as a stable JSON document on stdout")
		werror      = fs.Bool("Werror", false, "treat warnings as errors for the exit status")
		quiet       = fs.Bool("q", false, "suppress info-level diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, lines, err := cliprog.Load("dsrlint", *builtin, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "dsrlint:", err)
		return 2
	}

	diags := analysis.Run(p, analysis.DefaultPasses(), lines)

	if *l2 {
		if seq, err := loader.LayoutSequential(p, loader.DefaultSequentialConfig()); err == nil {
			diags = append(diags, analysis.LintL2Layout(p, seq.Placement,
				platform.ProximaLEON3().L2, analysis.L2LintOptions{MinFrac: *l2MinFrac})...)
		}
	}

	if *dsr {
		tp, meta, _, err := core.Transform(p)
		if err != nil {
			// An untransformable program is a lint finding, not a crash.
			diags = append(diags, analysis.Diagnostic{
				Pass: analysis.PassVerifyDSR, Sev: analysis.Error, Index: -1,
				Msg: "core.Transform failed: " + err.Error(),
			})
		} else {
			info := meta.TransformInfo()
			info.MaxOverheadFrac = *maxOverhead
			diags = append(diags, analysis.VerifyTransform(p, tp, info)...)
		}
	}

	var wcetRep *wcet.Report
	if *runWcet {
		wcetRep = wcet.Analyze(p, wcet.Config{Lines: lines})
		diags = append(diags, wcetRep.Diags...)
	}

	var leakRep *leak.Report
	if *runLeak {
		leakRep = leak.Analyze(p, leak.Config{Lines: lines})
		diags = append(diags, leakRep.Diags...)
	}

	if *stack && !*jsonOut {
		sb, err := analysis.AnalyzeStack(p, analysis.StackOptions{
			NumWindows: platform.ProximaLEON3().CPU.NumWindows,
		})
		if err != nil {
			diags = append(diags, analysis.Diagnostic{
				Pass: "stack", Sev: analysis.Error, Index: -1, Msg: err.Error(),
			})
		} else {
			fmt.Fprintf(stdout, "%s: call depth ≤ %d, window depth ≤ %d, stack ≤ %d bytes, spilled windows ≤ %d\n",
				p.Name, sb.MaxCallDepth, sb.MaxWindowDepth, sb.MaxStackBytes, sb.WindowSpillBound)
			fmt.Fprintf(stdout, "  worst chain: %v\n", sb.WorstChain)
		}
	}

	errs, warns := 0, 0
	for _, d := range diags {
		switch d.Sev {
		case analysis.Error:
			errs++
		case analysis.Warning:
			warns++
		}
	}
	failed := errs > 0 || (*werror && warns > 0)

	if *jsonOut {
		rep := analysis.NewReportJSON(p.Name, diags)
		if wcetRep != nil {
			if raw, err := wcetRep.JSON(); err == nil {
				rep.WCET = raw
			}
		}
		if leakRep != nil {
			if raw, err := leakRep.JSON(); err == nil {
				rep.Leak = raw
			}
		}
		out, err := rep.Marshal()
		if err != nil {
			fmt.Fprintln(stderr, "dsrlint:", err)
			return 2
		}
		stdout.Write(out)
		fmt.Fprintln(stdout)
		if failed {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		if d.Sev == analysis.Info && *quiet {
			continue
		}
		fmt.Fprintln(stdout, d)
	}
	if wcetRep != nil && wcetRep.Bounded {
		fmt.Fprintf(stdout, "dsrlint: wcet bound %d cycles (%s mode, %d loops)\n",
			wcetRep.BoundCycles, wcetRep.Mode, len(wcetRep.Loops))
	}
	if leakRep != nil && leakRep.Bounded {
		fmt.Fprintf(stdout, "dsrlint: leak bound %.1f access + %.1f trace bits (%s mode)\n",
			leakRep.AccessBits, leakRep.TraceBits, leakRep.Mode)
	}
	if failed {
		if *werror && errs == 0 {
			fmt.Fprintf(stderr, "dsrlint: %d warning(s) in %s promoted by -Werror\n", warns, p.Name)
		} else {
			fmt.Fprintf(stderr, "dsrlint: %d error(s) in %s\n", errs, p.Name)
		}
		return 1
	}
	fmt.Fprintf(stdout, "dsrlint: %s clean (%d diagnostics)\n", p.Name, len(diags))
	return 0
}
