package cpu

import (
	"testing"

	"dsr/internal/mem"
)

// Functional-memory microbenchmarks: every simulated load and store
// resolves its value through Memory, so the page lookup is on the
// per-instruction hot path. The load path must be allocation-free
// (asserted by TestMemoryLoadAllocFree).

var memSink uint32

// BenchmarkMemoryLoadSamePage is the common case: consecutive loads
// within one 4KB page (the last-page cache hit).
func BenchmarkMemoryLoadSamePage(b *testing.B) {
	m := NewMemory()
	m.StoreWord(0x5000_0100, 0xDEADBEEF)
	b.ReportAllocs()
	b.ResetTimer()
	var v uint32
	for i := 0; i < b.N; i++ {
		v += m.LoadWord(0x5000_0100)
	}
	memSink = v
}

// BenchmarkMemoryLoadSweep strides over 64KB of touched memory: page
// changes every 1024 loads.
func BenchmarkMemoryLoadSweep(b *testing.B) {
	m := NewMemory()
	const region = 64 * 1024
	for a := mem.Addr(0x5000_0000); a < 0x5000_0000+region; a += mem.PageSize {
		m.StoreWord(a, uint32(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var v uint32
	a := mem.Addr(0x5000_0000)
	for i := 0; i < b.N; i++ {
		v += m.LoadWord(a)
		a += 4
		if a >= 0x5000_0000+region {
			a = 0x5000_0000
		}
	}
	memSink = v
}

// BenchmarkMemoryStoreSamePage is the store counterpart of the
// last-page fast path.
func BenchmarkMemoryStoreSamePage(b *testing.B) {
	m := NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StoreWord(0x5000_0200, uint32(i))
	}
}

// BenchmarkMemoryPingPong alternates two pages: the worst case for a
// single-entry last-page cache, bounded by the page-table walk.
func BenchmarkMemoryPingPong(b *testing.B) {
	m := NewMemory()
	m.StoreWord(0x5000_0000, 1)
	m.StoreWord(0x5001_0000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var v uint32
	for i := 0; i < b.N; i++ {
		v += m.LoadWord(0x5000_0000)
		v += m.LoadWord(0x5001_0000)
	}
	memSink = v
}

// TestMemoryLoadAllocFree is the allocation-free guarantee for the
// load path (both the last-page hit and the table walk).
func TestMemoryLoadAllocFree(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x5000_0000, 1)
	m.StoreWord(0x5001_0000, 2)
	if n := testing.AllocsPerRun(1000, func() { memSink = m.LoadWord(0x5000_0000) }); n != 0 {
		t.Errorf("same-page load allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		memSink = m.LoadWord(0x5000_0000)
		memSink = m.LoadWord(0x5001_0000)
	}); n != 0 {
		t.Errorf("cross-page load allocates %v times", n)
	}
	// Stores to resident pages must not allocate either.
	if n := testing.AllocsPerRun(1000, func() { m.StoreWord(0x5000_0000, 3) }); n != 0 {
		t.Errorf("resident-page store allocates %v times", n)
	}
}
