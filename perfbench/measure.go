package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime/metrics"
	"sort"
	"time"

	"dsr/internal/platform"
)

// mix derives an independent 64-bit value from the workload seed and a
// stream index (splitmix64), so every input of a workload is a pure
// function of --seed.
func mix(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantile is the linearly interpolated q-quantile of xs (0 when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// digest hashes a workload's simulated outputs in a canonical text
// form; two runs measured the same program exactly when their digests
// agree.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// e2eRun accumulates the end-to-end figures of one untraced run.
// Every round of a run does the same work, so rates are taken per
// round at the median round time, which keeps a burst of host noise in
// one round out of the run's figures.
type e2eRun struct {
	setups  []float64 // seconds to the first merged run or ready server
	rounds  []float64 // seconds per measured round, to its final report
	jobs    []float64 // job latencies, ms
	runs    int       // measured runs (or activations) merged
	instr   float64   // simulated instructions executed by those runs
	allocMB float64
	rssMB   float64
}

// measure calls round until the run's measuring time is spent (at
// least once), timing each round and the heap it allocates.
func (r *e2eRun) measure(d time.Duration, round func() error) error {
	a0 := totalAllocMB()
	start := time.Now()
	for len(r.rounds) == 0 || time.Since(start) < d {
		t := time.Now()
		if err := round(); err != nil {
			return err
		}
		r.rounds = append(r.rounds, time.Since(t).Seconds())
	}
	r.allocMB = totalAllocMB() - a0
	r.rssMB = maxRSSMB()
	return nil
}

// metrics renders every end-to-end metric.
func (r *e2eRun) metrics() map[string]metric {
	wall := median(r.rounds)
	rate := func(total float64) float64 { return total / float64(len(r.rounds)) / wall }
	return map[string]metric{
		"setup_s":    {median(r.setups), "s"},
		"wall_s":     {wall, "s"},
		"runs_per_s": {rate(float64(r.runs)), "runs/s"},
		"sim_mips":   {rate(r.instr) / 1e6, "Minstr/s"},
		"job_ms_p50": {quantile(r.jobs, 0.5), "ms"},
		"job_ms_p90": {quantile(r.jobs, 0.9), "ms"},
		"jobs_per_s": {rate(float64(len(r.jobs))), "jobs/s"},
		"alloc_mb":   {r.allocMB / float64(len(r.rounds)), "MB"},
		"max_rss_mb": {r.rssMB, "MB"},
	}
}

// tally sums the simulated counters of a round's runs.
type tally struct {
	runs                  int
	instr, dl1, l2, l2acc uint64
	dtlb, itlb            uint64
	reboots               int
	relocated             uint64
	overruns              int
}

func (t *tally) add(p platform.PMCs) {
	t.runs++
	t.instr += p.Instr
	t.dl1 += p.DCMiss
	t.l2 += p.L2Miss
	t.l2acc += p.L2Access
	t.dtlb += p.DTLBMiss
	t.itlb += p.ITLBMiss
}

// addRun adds a replayed run, with its reboot when it had one.
func (t *tally) addRun(r runRec) {
	t.add(r.pmcs)
	if r.rebooted {
		t.reboots++
		t.relocated += r.relocated
	}
}

// merge adds another tally's sums.
func (t *tally) merge(o tally) {
	t.runs += o.runs
	t.instr += o.instr
	t.dl1 += o.dl1
	t.l2 += o.l2
	t.l2acc += o.l2acc
	t.dtlb += o.dtlb
	t.itlb += o.itlb
	t.reboots += o.reboots
	t.relocated += o.relocated
	t.overruns += o.overruns
}

// digest adds the counter sums to a digest.
func (t *tally) digest(d *digest) {
	d.add("pmc runs=%d instr=%d dl1=%d l2=%d l2acc=%d dtlb=%d itlb=%d overruns=%d",
		t.runs, t.instr, t.dl1, t.l2, t.l2acc, t.dtlb, t.itlb, t.overruns)
}

// gcSample reads the Go runtime's GC counters.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// traceRounds replays round until the run's measuring time is spent,
// alternating traced rounds (under a tracer) with untraced ones (nil
// tracer), at least one of each. Taking the untraced wall times from
// the same stretch of host time as the traced ones keeps host drift
// out of the tracing overhead. It returns the traced rounds, the
// median untraced round wall time, and the GC figures of the replay.
func traceRounds(d time.Duration, round func(*tracer) error) ([]roundTrace, time.Duration, map[string]metric, error) {
	tr := newTracer()
	g0 := readGC()
	start := time.Now()
	var traced []roundTrace
	var untraced []float64
	for len(traced) == 0 || len(untraced) == 0 || time.Since(start) < d {
		on := len(traced) <= len(untraced)
		rtr := tr
		if !on {
			rtr = nil
		}
		t := time.Now()
		if err := round(rtr); err != nil {
			return nil, 0, nil, err
		}
		wall := time.Since(t)
		if !on {
			untraced = append(untraced, wall.Seconds())
			continue
		}
		self, incl := tr.take()
		traced = append(traced, roundTrace{wall: wall, self: self, incl: incl})
	}
	g1 := readGC()
	frac := 0.0
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		frac = (g1.gcCPU - g0.gcCPU) / cpu
	}
	n := float64(len(traced) + len(untraced))
	return traced, time.Duration(median(untraced) * float64(time.Second)), map[string]metric{
		"go.gc_cpu_frac": {frac, "ratio"},
		"go.gc_cycles":   {(g1.cycles - g0.cycles) / n, "count"},
	}, nil
}

// layerMetrics renders every per-layer metric from the traced rounds:
// span times as medians per round, the simulated counters of one round
// t as means per run, and the accounting of the traced wall time
// against untraced, the median wall time of the same round replayed
// untraced at one worker. Layers a workload does not exercise report
// zero.
func layerMetrics(rounds []roundTrace, gc map[string]metric, t tally, untraced time.Duration) map[string]metric {
	m := map[string]metric{}
	sec := func(name, layer string) { m[name] = metric{medianSelf(rounds, layer), "s"} }
	sec("cpu.exec_s", "cpu.exec")
	sec("core.reboot_s", "core.reboot")
	sec("core.transform_s", "core.transform")
	sec("core.verify_s", "core.verify")
	sec("platform.restore_s", "platform.restore")
	sec("spaceapp.input_gen_s", "spaceapp.input_gen")
	sec("spaceapp.reference_s", "spaceapp.reference")
	sec("campaign.overhead_s", "campaign")
	sec("rtos.frame_self_s", "rtos.frame")
	sec("schedfeas.analyze_s", "schedfeas")
	sec("mbpta.analyse_s", "mbpta")
	sec("asm.assemble_s", "asm")

	perInstr := 0.0
	if t.instr > 0 {
		perInstr = m["cpu.exec_s"].Value * 1e9 / float64(t.instr)
	}
	m["cpu.ns_per_instr"] = metric{perInstr, "ns"}
	m["campaign.worker_util"] = metric{medianOf(rounds, func(r roundTrace) float64 {
		if r.incl["campaign"] == 0 {
			return 0
		}
		return r.incl["campaign.run"].Seconds() / r.incl["campaign"].Seconds()
	}), "ratio"}

	m["serve.validate_s"] = metric{medianIncl(rounds, "serve.validate"), "s"}
	m["serve.run_s"] = metric{medianIncl(rounds, "serve.run"), "s"}
	m["serve.overhead_s"] = metric{medianOf(rounds, func(r roundTrace) float64 {
		return (r.incl["serve.job"] - r.incl["serve.run"]).Seconds()
	}), "s"}
	m["serve.checkpoint_write_ms"] = metric{1e3 * medianIncl(rounds, "serve.checkpoint"), "ms"}
	m["serve.checkpoint_bytes"] = metric{0, "bytes"}
	m["telemetry.attribution_s"] = metric{medianOf(rounds, func(r roundTrace) float64 {
		return (r.incl["serve.run"] - r.incl["serve.run_noattr"]).Seconds()
	}), "s"}

	perRun := func(x uint64) float64 {
		if t.runs == 0 {
			return 0
		}
		return float64(x) / float64(t.runs)
	}
	m["cache.dl1_miss"] = metric{perRun(t.dl1), "count"}
	m["cache.l2_miss"] = metric{perRun(t.l2), "count"}
	ratio := 0.0
	if t.l2acc > 0 {
		ratio = float64(t.l2) / float64(t.l2acc)
	}
	m["cache.l2_miss_ratio"] = metric{ratio, "ratio"}
	m["tlb.dtlb_miss"] = metric{perRun(t.dtlb), "count"}
	m["tlb.itlb_miss"] = metric{perRun(t.itlb), "count"}
	reloc := 0.0
	if t.reboots > 0 {
		reloc = float64(t.relocated) / float64(t.reboots)
	}
	m["core.relocated_bytes"] = metric{reloc, "bytes"}
	m["rtos.overruns"] = metric{float64(t.overruns), "count"}

	for k, v := range gc {
		m[k] = v
	}
	wall := medianOf(rounds, func(r roundTrace) float64 { return r.wall.Seconds() })
	m["trace.wall_s"] = metric{wall, "s"}
	m["trace.unattributed_frac"] = metric{medianOf(rounds, func(r roundTrace) float64 {
		return r.unattributed().Seconds() / r.wall.Seconds()
	}), "ratio"}
	m["trace.overhead_s"] = metric{wall - untraced.Seconds(), "s"}
	return m
}
