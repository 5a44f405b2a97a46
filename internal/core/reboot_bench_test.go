package core

import (
	"testing"

	"dsr/internal/platform"
)

// BenchmarkReboot measures one DSR partition reboot — layout draw,
// in-place image rebuild, journalled memory clear, metadata writes and
// eager relocation cost accounting — without the run that follows. This
// is the per-run overhead the DSR series pays on top of execution, and
// its allocs/op column shows a regression back to per-run image
// construction or page-table churn.
func BenchmarkReboot(b *testing.B) {
	p := benchProgram(b)
	plat := platform.New(platform.ProximaLEON3())
	rt, err := NewRuntime(p, plat, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Reboot(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Reboot(uint64(i) + 2); err != nil {
			b.Fatal(err)
		}
	}
}
