// Command perfbench is the repository benchmark: it drives the DSR
// reproduction through its public entry points on three workloads,
// checks the simulated outputs, and prints every metric by name with
// its unit. See README.md for the metric → layer → workload map.
//
// Usage (from the repository root, through perfbench/run.sh, which
// builds this package first):
//
//	bash perfbench/run.sh --workload paper_campaign --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run at
// workers = nproc; --trace 1 prints the per-layer metrics of a traced
// replay at one worker. The last line of standard output is the result
// object; the lines before it (prefixed "#") carry the host record,
// the digest of the simulated outputs and, when traced, the layer
// accounting table.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes fixes the work in one round of each workload. The defaults are
// the benchmark; the tests shrink them.
type sizes struct {
	paperRuns  int // runs per series of the paper protocol
	gridFrames int // certified major frames per E9 cell
	serveRuns  int // runs per dsrserve job
	specPool   int // distinct job specs the serve clients cycle through
}

var defaultSizes = sizes{paperRuns: 1000, gridFrames: 8, serveRuns: 1000, specPool: 4}

// bench is one invocation: the workload's inputs and the run's
// bookkeeping of attempted and failed operations.
type bench struct {
	seed    uint64
	measure time.Duration
	workers int
	size    sizes
	root    string // repository root (sources and testdata)
	scratch string // writable directory for server data

	attempted int
	failed    int
	problems  []string
	notes     []string
}

// fail books units failed operations with the reason.
func (b *bench) fail(units int, format string, args ...any) {
	b.failed += units
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// note adds a line to the run's printed record.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// checkDigest compares a digest against the reference one, booking the
// units of work behind it as failed on a mismatch.
func (b *bench) checkDigest(what, want, got string, units int) {
	if got != want {
		b.fail(units, "%s: digest %s differs from %s", what, short(got), short(want))
	}
}

func short(d string) string {
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	e2e    func(*bench) (map[string]metric, string, error)
	traced func(*bench) (map[string]metric, string, error)
}{
	"paper_campaign":  {paperE2E, paperTraced},
	"processing_grid": {gridE2E, gridTraced},
	"serve_jobs":      {serveE2E, serveTraced},
}

func main() {
	workload := flag.String("workload", "", "paper_campaign, processing_grid or serve_jobs")
	seed := flag.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Float64("seconds", 25, "measuring time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		size:    defaultSizes,
		root:    root,
	}
	res, _, err := b.run(*workload, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, l := range b.notes {
		fmt.Fprintln(out, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload, untraced or traced, and assembles its
// result, its record and the digest of its simulated outputs.
func (b *bench) run(name string, trace bool) (*result, string, error) {
	base := filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, "", err
	}
	defer func() {
		os.RemoveAll(dir)
		// Flush the deletions so the next run does not start under
		// this one's file-system journal traffic.
		syscall.Sync()
	}()
	b.scratch = dir

	f := workloads[name].e2e
	if trace {
		f = workloads[name].traced
	}
	metrics, digest, err := f(b)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", name, err)
	}
	if trace {
		metrics["failed_frac"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}
	}
	for _, p := range b.problems {
		b.note("# FAILED: %s", p)
	}
	rec := map[string]any{
		"workload": name, "seed": b.seed, "trace": trace,
		"seconds": b.measure.Seconds(), "workers": b.workers,
		"digest": digest, "host": hostRecord(b.root), "metrics": metrics,
	}
	rb, err := json.Marshal(rec)
	if err != nil {
		return nil, "", err
	}
	b.note("# digest %s", digest)
	b.note("# record %s", rb)
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, digest, nil
}

// findRoot locates the repository root: the nearest directory, from
// the working directory up, that holds the DSR module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "internal", "asm", "testdata", "uoa.s")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no DSR repository root above the working directory")
		}
		dir = parent
	}
}

// hostRecord is the host fingerprint every result carries.
func hostRecord(root string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured sources: the VCS revision stamped into the
// build when there is one, else a hash of the repository's Go sources
// (benchmark checkouts need not be git repositories).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || ext == ".s" || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\n", rel)
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// totalAllocMB is the heap bytes allocated so far.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
