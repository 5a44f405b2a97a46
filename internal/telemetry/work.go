package telemetry

// Work is the host-work ledger of a campaign: exact counts of how often
// the simulator left its fast paths while running it. Each field is a
// pure function of the campaign's spec and seeds — a partition reboot
// and every measured run start from flushed caches and TLBs, so no
// count depends on which worker ran a run or what it ran before — and
// is therefore identical at every worker count. A change in any field
// is a change in the path the host took, which a timer sees only when
// it is large; the ledger sees it exactly. None of these counts is a
// simulated event: they stay out of the PMCs, RunResult and every
// snapshot, so recording them cannot change a campaign's output.
type Work struct {
	// Runs is the number of measured runs reported.
	Runs uint64 `json:"runs"`
	// Instrs is the simulated instructions those runs retired.
	Instrs uint64 `json:"instrs"`
	// Steps is the instructions the interpreter executed (cpu.Step);
	// the threaded-code engine executed Instrs − Steps.
	Steps uint64 `json:"interp_steps"`
	// FetchRefills is the exact fetches (cpu.fetchSlow) that armed a
	// new fetch window.
	FetchRefills uint64 `json:"fetch_refills"`
	// TLBScans is the ITLB and DTLB translations that missed the
	// one-entry MRU and entered the hint table or scan.
	TLBScans uint64 `json:"tlb_scans"`
	// CacheSlow is the IL1, DL1 and L2 line accesses that got past both
	// MRU memos to a set lookup.
	CacheSlow uint64 `json:"cache_slow"`
	// Reboots is the DSR partition reboots.
	Reboots uint64 `json:"reboots"`
	// RelocBytes is the code bytes the DSR runtime relocated, at boot
	// (eager) or on first call (lazy).
	RelocBytes uint64 `json:"reloc_bytes"`
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Runs += o.Runs
	w.Instrs += o.Instrs
	w.Steps += o.Steps
	w.FetchRefills += o.FetchRefills
	w.TLBScans += o.TLBScans
	w.CacheSlow += o.CacheSlow
	w.Reboots += o.Reboots
	w.RelocBytes += o.RelocBytes
}

// Since returns the work done between the cumulative counts base and w.
func (w Work) Since(base Work) Work {
	return Work{
		Runs:         w.Runs - base.Runs,
		Instrs:       w.Instrs - base.Instrs,
		Steps:        w.Steps - base.Steps,
		FetchRefills: w.FetchRefills - base.FetchRefills,
		TLBScans:     w.TLBScans - base.TLBScans,
		CacheSlow:    w.CacheSlow - base.CacheSlow,
		Reboots:      w.Reboots - base.Reboots,
		RelocBytes:   w.RelocBytes - base.RelocBytes,
	}
}

// AddWork books one run's host work on the worker's track; nil-safe.
func (w *WorkerTracer) AddWork(wk Work) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.work.Add(wk)
	w.mu.Unlock()
}

// Work sums the host work every worker track booked; nil-safe (zero).
func (t *Tracer) Work() Work {
	var sum Work
	if t == nil {
		return sum
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.workers {
		w.mu.Lock()
		sum.Add(w.work)
		w.mu.Unlock()
	}
	return sum
}
