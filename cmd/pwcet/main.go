// Command pwcet is the MBPTA analysis tool (the RVS analysis stage of
// §V-VI): it reads execution times — either a binary timing trace
// produced by traceconv -gen, or a text file with one execution time per
// line — runs the i.i.d. gate, fits the EVT model, and prints the pWCET
// report and curve.
//
//	pwcet -trace trace.bin
//	pwcet -times times.txt -block 50 -target 1e-15
//	pwcet -times times.txt -static control:dsr-eager
//	pwcet -times times.txt -static 6054473
//
// -static prints a reference line comparing the measurement-based pWCET
// estimate against the static WCET bound (internal/analysis/wcet). The
// argument is either an absolute cycle bound or app:mode, where app is
// control or processing and mode is det, dsr-eager or dsr-lazy.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dsr/internal/analysis/wcet"
	"dsr/internal/cliprog"
	"dsr/internal/mbpta"
	"dsr/internal/rvs"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "binary timing trace (rvs format)")
		timesFile = flag.String("times", "", "text file with one execution time per line ('-' for stdin)")
		enter     = flag.Int("enter", int(rvs.UoAEnter), "UoA enter instrumentation point id")
		exit      = flag.Int("exit", int(rvs.UoAExit), "UoA exit instrumentation point id")
		block     = flag.Int("block", 50, "EVT block-maxima size")
		target    = flag.Float64("target", 1e-15, "target exceedance probability")
		static    = flag.String("static", "", "static WCET reference: a cycle bound, or app:mode (control|processing : det|dsr-eager|dsr-lazy)")
	)
	flag.Parse()

	staticBound, staticLabel, err := resolveStatic(*static)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwcet:", err)
		os.Exit(1)
	}

	times, err := loadTimes(*traceFile, *timesFile, int32(*enter), int32(*exit))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwcet:", err)
		os.Exit(1)
	}
	if len(times) == 0 {
		fmt.Fprintln(os.Stderr, "pwcet: no execution times found")
		os.Exit(1)
	}

	opts := mbpta.DefaultOptions()
	opts.BlockSize = *block
	opts.TargetExceedance = *target
	// The Gumbel fit needs at least 10 block maxima; shrink the block for
	// small samples rather than refusing outright.
	if len(times)/opts.BlockSize < 10 {
		adj := len(times) / 10
		if adj < 5 {
			adj = 5
		}
		fmt.Fprintf(os.Stderr, "pwcet: only %d runs; reducing block size %d -> %d\n",
			len(times), opts.BlockSize, adj)
		opts.BlockSize = adj
	}
	rep, analyseErr := mbpta.Analyse(times, opts)
	name := *traceFile
	if name == "" {
		name = *timesFile
	}
	if err := rvs.WriteReport(os.Stdout, name, rep, times); err != nil {
		fmt.Fprintln(os.Stderr, "pwcet:", err)
		os.Exit(1)
	}
	if staticBound > 0 {
		printStatic(rep, staticBound, staticLabel)
	}
	if analyseErr != nil {
		fmt.Fprintln(os.Stderr, "pwcet:", analyseErr)
		os.Exit(1)
	}
}

// resolveStatic turns the -static argument into a cycle bound: either a
// literal number, or app:mode analysed on the spot with the same
// wiring the soundness gate uses (wcet.AnalyzeMode).
func resolveStatic(spec string) (float64, string, error) {
	if spec == "" {
		return 0, "", nil
	}
	if v, err := strconv.ParseFloat(spec, 64); err == nil {
		if v <= 0 {
			return 0, "", fmt.Errorf("-static bound must be positive, got %v", v)
		}
		return v, "given bound", nil
	}
	app, modeName, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, "", fmt.Errorf("-static wants a cycle count or app:mode, got %q", spec)
	}
	build, ok := cliprog.Builtin(app)
	if !ok {
		return 0, "", fmt.Errorf("-static app %q: want control or processing", app)
	}
	p, err := build()
	if err != nil {
		return 0, "", err
	}
	mode, err := wcet.ParseMode(modeName)
	if err != nil {
		return 0, "", fmt.Errorf("-static mode %q: want det, dsr-eager or dsr-lazy", modeName)
	}
	rep, err := wcet.AnalyzeMode(p, mode, wcet.Config{})
	if err != nil {
		return 0, "", err
	}
	if !rep.Bounded {
		return 0, "", fmt.Errorf("static analysis refused %s under %s", app, modeName)
	}
	return float64(rep.BoundCycles), spec, nil
}

// printStatic is the static-vs-probabilistic reference line: where the
// analytical bound sits relative to the MOET and the pWCET estimate.
func printStatic(rep *mbpta.Report, bound float64, label string) {
	fmt.Printf("static WCET reference (%s): %.0f cycles\n", label, bound)
	if rep == nil {
		return
	}
	if rep.MOET > 0 {
		fmt.Printf("  MOET %.0f  -> static/MOET x%.2f\n", rep.MOET, bound/rep.MOET)
	}
	if rep.PWCET > 0 {
		verdict := "pWCET exceeds the static bound — EVT extrapolation is pessimistic there"
		if rep.PWCET <= bound {
			verdict = "pWCET is below the static bound, as expected for a sound bound"
		}
		fmt.Printf("  pWCET %.0f -> static/pWCET x%.2f (%s)\n", rep.PWCET, bound/rep.PWCET, verdict)
	}
}

func loadTimes(traceFile, timesFile string, enter, exit int32) ([]float64, error) {
	switch {
	case traceFile != "" && timesFile != "":
		return nil, fmt.Errorf("give either -trace or -times, not both")
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		trace, err := rvs.Decode(f)
		if err != nil {
			return nil, err
		}
		return rvs.ToFloats(rvs.Durations(trace, enter, exit)), nil
	case timesFile != "":
		var r io.Reader = os.Stdin
		if timesFile != "-" {
			f, err := os.Open(timesFile)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return readTimes(r)
	default:
		return nil, fmt.Errorf("give -trace FILE or -times FILE")
	}
}

func readTimes(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("bad execution time %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
