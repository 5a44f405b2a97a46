package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"dsr/internal/analysis/wcet"
)

// Absolute output pins for the campaigns golden_cycles.json does not
// cover: the E8 leakage series and the E9 grid cells. The determinism
// suite only proves worker-count independence for these; this file
// pins their numbers across code changes, like TestGoldenCycles does
// for the Run* series. A mismatch means a change moved simulated
// behaviour — never regenerate the file to make a failure pass.
//
// Regenerate (only when the timing model itself is deliberately
// changed) with:
//
//	go test ./internal/experiments -run TestPinnedCampaigns -update-pins

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/campaign_pins.json from the current binary")

const pinsPath = "testdata/campaign_pins.json"

// pinRuns and pinFrames size the pinned campaigns: enough runs for
// every leakage layout to repeat (leakLayouts = 8), enough frames for
// the randomized executive to move the control window.
const (
	pinRuns   = 24
	pinFrames = 6
)

// leakPin is the pinned output of one RunLeak campaign.
type leakPin struct {
	Seeds     []uint64 `json:"seeds"`
	ObsSHA256 string   `json:"obs_sha256"`
	Cycles    []uint64 `json:"cycles"`
}

// e9Pin is the pinned output of one RunE9Cell campaign.
type e9Pin struct {
	ControlCycles  []uint64 `json:"control_cycles"`
	ControlOffsets []int    `json:"control_offsets"`
	Overruns       int      `json:"overruns"`
}

// campaignPins is the whole pin file.
type campaignPins struct {
	Leak map[string]leakPin `json:"leak"`
	E9   map[string]e9Pin   `json:"e9"`
}

func toUint64s(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = uint64(f)
	}
	return out
}

// captureCampaignPins runs every pinned campaign at one worker.
func captureCampaignPins(t *testing.T) campaignPins {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Runs = pinRuns
	cfg.Workers = 1
	pins := campaignPins{Leak: map[string]leakPin{}, E9: map[string]e9Pin{}}
	for _, mode := range []wcet.Mode{wcet.ModeDet, wcet.ModeDSREager, wcet.ModeDSRLazy} {
		s, err := RunLeak(cfg, mode)
		if err != nil {
			t.Fatalf("RunLeak(%s): %v", mode, err)
		}
		obs, err := json.Marshal(s.Obs)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(obs)
		pins.Leak[mode.String()] = leakPin{
			Seeds:     s.Seeds,
			ObsSHA256: hex.EncodeToString(sum[:]),
			Cycles:    toUint64s(s.Cycles),
		}
	}
	cfg.Runs = pinFrames
	for _, cell := range E9Cells() {
		s, err := RunE9Cell(cfg, cell)
		if err != nil {
			t.Fatalf("RunE9Cell(%s): %v", cell.Name(), err)
		}
		pins.E9[cell.Name()] = e9Pin{
			ControlCycles:  toUint64s(s.ControlCycles),
			ControlOffsets: s.ControlOffsets,
			Overruns:       s.Overruns,
		}
	}
	return pins
}

// TestPinnedCampaigns compares RunLeak (det, dsr-eager, dsr-lazy) and
// RunE9Cell (all four cells) against the recorded pins.
func TestPinnedCampaigns(t *testing.T) {
	got := captureCampaignPins(t)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded campaign pins to %s", pinsPath)
		return
	}
	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatalf("pin file missing (record with -update-pins): %v", err)
	}
	var want campaignPins
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("pin file corrupt: %v", err)
	}
	if len(want.Leak) != len(got.Leak) || len(want.E9) != len(got.E9) {
		t.Fatalf("pin file covers %d leak / %d E9 campaigns, test runs %d / %d",
			len(want.Leak), len(want.E9), len(got.Leak), len(got.E9))
	}
	for name, w := range want.Leak {
		if g := got.Leak[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("RunLeak %s diverges from pin:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
	for name, w := range want.E9 {
		if g := got.E9[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("RunE9Cell %s diverges from pin:\n  got  %+v\n  want %+v", name, g, w)
		}
	}
}
