// Command dsrleak runs the static cache side-channel leakage analyzer
// (internal/analysis/leak) over a program and prints the channel
// bounds: the access-based (prime+probe) capacity per cache level, the
// trace-based (hit/miss sequence) capacity, and — for the DSR modes —
// the layout entropy and the residual guessing entropy per observation
// budget.
//
//	dsrleak prog.s                     bound an assembly source (det layout)
//	dsrleak -builtin control           bound a built-in program
//	dsrleak -mode dsr-eager prog.s     bound the DSR-transformed program
//	                                   over all feasible placements
//	dsrleak -json prog.s               emit the report as JSON
//
// The bounds are sound channel-capacity upper bounds: over any campaign
// the number of distinct observations an attacker collects never
// exceeds 2^bound. The repo's CI cross-checks this invariant against
// the simulated prime+probe and evict+time attackers (make leak-check).
//
// Exit status: 0 when finite bounds were produced, 1 when the analysis
// rejected the program, 2 on usage or input errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"dsr/internal/analysis/leak"
	"dsr/internal/analysis/wcet"
	"dsr/internal/cliprog"
)

func main() {
	var (
		builtin = flag.String("builtin", "", "analyse a built-in program: control | processing")
		mode    = flag.String("mode", "det", "layout model: det | dsr-eager | dsr-lazy")
		jsonOut = flag.Bool("json", false, "emit the report as JSON")
		quiet   = flag.Bool("q", false, "suppress diagnostics in text output")
	)
	flag.Parse()

	p, lines, err := cliprog.Load("dsrleak", *builtin, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrleak:", err)
		os.Exit(2)
	}
	m, err := wcet.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrleak:", err)
		os.Exit(2)
	}

	rep, err := leak.AnalyzeMode(p, m, leak.Config{Lines: lines})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsrleak:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsrleak:", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		fmt.Println()
	} else {
		if *quiet {
			rep.Diags = nil
		}
		fmt.Print(rep.Format())
	}
	if !rep.Bounded {
		os.Exit(1)
	}
}
