//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in;
// allocation counts are not asserted under -race because the race
// runtime allocates on file-system calls at its own pace.
const raceEnabled = false
