// Command dsrwcet runs the static WCET analyzer (internal/analysis/wcet)
// over a program and prints the bound, the loop-bound table, the cache
// classification tallies and every diagnostic.
//
//	dsrwcet prog.s                     bound an assembly source (det layout)
//	dsrwcet -builtin control           bound a built-in program
//	dsrwcet -mode dsr-eager prog.s     bound the DSR-transformed program
//	                                   over all feasible placements
//	dsrwcet -json prog.s               emit the report as JSON
//
// The bound is sound: for every run of the analysed binary on the
// simulated platform, observed cycles <= bound_cycles. The repo's CI
// cross-checks this invariant over randomised campaigns (make
// wcet-check).
//
// Exit status: 0 when a finite bound was produced, 1 when the analysis
// rejected the program (unbounded loop, recursion, unresolved indirect
// call, ...), 2 on usage or input errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dsr/internal/analysis/wcet"
	"dsr/internal/cliprog"
	"dsr/internal/mem"
)

func main() {
	var (
		builtin    = flag.String("builtin", "", "analyse a built-in program: control | processing")
		mode       = flag.String("mode", "det", "layout model: det | dsr-eager | dsr-lazy")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON")
		contention = flag.Int("contention", 0, "worst-case per-bus-transaction interference delay in cycles")
		reloc      = flag.Int("reloc", -1, "per-function lazy-relocation charge in cycles (dsr-lazy; -1 derives the sound bound from the platform)")
		quiet      = flag.Bool("q", false, "suppress the loop and per-function tables")
	)
	flag.Parse()

	p, lines, err := cliprog.Load("dsrwcet", *builtin, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrwcet:", err)
		os.Exit(2)
	}

	cfg := wcet.Config{
		Lines:         lines,
		BusContention: mem.Cycles(*contention),
	}
	if *reloc >= 0 {
		cfg.RelocBound = mem.Cycles(*reloc)
	}
	m, err := wcet.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrwcet:", err)
		os.Exit(2)
	}

	// AnalyzeMode analyses what actually runs: the DSR modes bound the
	// core.Transform output with the canonical dispatch resolver and the
	// runtime's stack-offset bound.
	rep, err := wcet.AnalyzeMode(p, m, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrwcet:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsrwcet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		fmt.Println()
	} else {
		printText(rep, *quiet)
	}
	if !rep.Bounded {
		os.Exit(1)
	}
}

func printText(r *wcet.Report, quiet bool) {
	fmt.Printf("%s (entry %s, mode %s)\n", r.Program, r.Entry, r.Mode)
	for _, d := range r.Diags {
		fmt.Println(" ", d)
	}
	if !r.Bounded {
		fmt.Println("UNBOUNDED: the analysis rejected the program (see diagnostics)")
		return
	}
	sat := ""
	if r.Saturated {
		sat = " (SATURATED — bound exceeded the arithmetic ceiling)"
	}
	fmt.Printf("WCET bound: %d cycles%s\n", r.BoundCycles, sat)
	fmt.Printf("  window-safe: %v, ITLB pages: %d, DTLB pages: %d, TLB charge: %d cycles\n",
		r.WindowSafe, r.ITLBPages, r.DTLBPages, r.TLBCycles)
	fmt.Printf("  cache classification: %d always-hit, %d always-miss, %d not-classified\n",
		r.AlwaysHit, r.AlwaysMiss, r.NotClassified)
	if quiet {
		return
	}
	if len(r.Loops) > 0 {
		fmt.Println("  loops:")
		for _, l := range r.Loops {
			loc := fmt.Sprintf("%s+%d", l.Fn, l.Head)
			if l.Line > 0 {
				loc = fmt.Sprintf("%s (line %d)", loc, l.Line)
			}
			fmt.Printf("    %-28s depth %d  bound %-10d %s\n", loc, l.Depth, l.Bound, l.Source)
		}
	}
	if len(r.FuncCycles) > 0 {
		names := make([]string, 0, len(r.FuncCycles))
		for n := range r.FuncCycles {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("  per-function bounds:")
		for _, n := range names {
			fmt.Printf("    %-28s %d cycles\n", n, r.FuncCycles[n])
		}
	}
}
