package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// Absolute output pins for the job runner: the determinism suite proves
// Run is worker-count independent and CLI-identical, this file pins
// what it emits across code changes. A mismatch means a change moved
// simulated behaviour or an export format — never regenerate the file
// to make a failure pass.
//
// Regenerate (only when the timing model or an export format is
// deliberately changed) with:
//
//	go test ./internal/serve -run TestRunPins -update-pins

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/run_pins.json from the current binary")

const pinsPath = "testdata/run_pins.json"

// runPin is the pinned output of one serve.Run job.
type runPin struct {
	PointsSHA256    string `json:"points_sha256"`
	TelemetrySHA256 string `json:"telemetry_sha256"`
	ReportSHA256    string `json:"report_sha256"`
	Err             string `json:"err,omitempty"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// captureRunPins runs the uoa.s job with attribution off and on.
func captureRunPins(t *testing.T) map[string]runPin {
	t.Helper()
	pins := map[string]runPin{}
	for name, attr := range map[string]bool{"attribution": true, "plain": false} {
		spec := testSpec(t, "pin-"+name, 60, 1, 7)
		spec.Attribution = attr
		out, err := Run(spec, nil, Hooks{})
		var pin runPin
		if err != nil {
			pin.Err = err.Error()
		}
		if out == nil {
			t.Fatalf("%s: no outcome: %v", name, err)
		}
		pts, merr := json.Marshal(out.Points)
		if merr != nil {
			t.Fatal(merr)
		}
		pin.PointsSHA256 = sha(pts)
		pin.TelemetrySHA256 = sha(out.Telemetry)
		pin.ReportSHA256 = sha([]byte(FormatReport(out)))
		pins[name] = pin
	}
	return pins
}

// TestRunPins compares serve.Run on internal/asm/testdata/uoa.s, with
// cycle attribution on and off, against the recorded pins: merged
// points, telemetry export and the rendered report.
func TestRunPins(t *testing.T) {
	got := captureRunPins(t)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded run pins to %s", pinsPath)
		return
	}
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatalf("pin file missing (record with -update-pins): %v", err)
	}
	var want map[string]runPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("pin file corrupt: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("pin file covers %d jobs, test runs %d", len(want), len(got))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("job %s diverges from pin:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}
