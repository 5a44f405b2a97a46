package spaceapp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

// Absolute output pins for the input generators. GenScene and
// GenControlInput feed every processing and control campaign, so their
// bytes are pinned directly, not only through the cycle counts that
// golden_cycles.json records downstream. A mismatch means a change
// moved the generated inputs — never regenerate the file to make a
// failure pass.
//
// Regenerate (only when the input model itself is deliberately
// changed) with:
//
//	go test ./internal/spaceapp -run TestPinnedInputs -update-pins

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/scene_pins.json from the current binary")

const pinsPath = "testdata/scene_pins.json"

// pinSeeds are the input seeds pinned: the examples' base (1..8) and
// the campaigns' default InputSeedBase (9000..9015).
func pinSeeds() []uint64 {
	var seeds []uint64
	for s := uint64(1); s <= 8; s++ {
		seeds = append(seeds, s)
	}
	for s := uint64(9000); s < 9016; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// pinFractions are the lit fractions the campaigns draw scenes at:
// dark, the 0.3 study point, the nominal LitFraction and worst path.
var pinFractions = []float64{0, 0.3, LitFraction, 1}

// scenePin is one pinned scene.
type scenePin struct {
	Seed   uint64  `json:"seed"`
	Frac   float64 `json:"frac"`
	Lit    int     `json:"lit"`
	SHA256 string  `json:"sha256"`
}

// controlPin is one pinned control input (Raw then Mailbox words,
// big-endian).
type controlPin struct {
	Seed   uint64 `json:"seed"`
	SHA256 string `json:"sha256"`
}

// inputPins is the whole pin file.
type inputPins struct {
	Scenes  []scenePin   `json:"scenes"`
	Control []controlPin `json:"control"`
}

func captureInputPins() inputPins {
	var pins inputPins
	for _, frac := range pinFractions {
		for _, seed := range pinSeeds() {
			s := GenScene(seed, frac)
			sum := sha256.Sum256(s.Pixels)
			pins.Scenes = append(pins.Scenes, scenePin{
				Seed: seed, Frac: frac, Lit: s.Lit, SHA256: hex.EncodeToString(sum[:]),
			})
		}
	}
	for _, seed := range pinSeeds() {
		in := GenControlInput(seed)
		h := sha256.New()
		// A hash.Hash write never fails.
		_ = binary.Write(h, binary.BigEndian, in.Raw)
		_ = binary.Write(h, binary.BigEndian, in.Mailbox)
		pins.Control = append(pins.Control, controlPin{Seed: seed, SHA256: hex.EncodeToString(h.Sum(nil))})
	}
	return pins
}

// TestPinnedInputs compares every pinned scene and control input with
// testdata/scene_pins.json.
func TestPinnedInputs(t *testing.T) {
	got := captureInputPins()
	if *updatePins {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", pinsPath)
		return
	}
	b, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want inputPins
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Scenes) != len(got.Scenes) || len(want.Control) != len(got.Control) {
		t.Fatalf("pin file has %d scenes, %d control inputs; generator pins %d, %d",
			len(want.Scenes), len(want.Control), len(got.Scenes), len(got.Control))
	}
	for i := range got.Scenes {
		if got.Scenes[i] != want.Scenes[i] {
			t.Errorf("scene seed=%d frac=%g: got %+v, pinned %+v",
				want.Scenes[i].Seed, want.Scenes[i].Frac, got.Scenes[i], want.Scenes[i])
		}
	}
	for i := range got.Control {
		if got.Control[i] != want.Control[i] {
			t.Errorf("control input seed %d: sha256 %s, pinned %s",
				want.Control[i].Seed, got.Control[i].SHA256, want.Control[i].SHA256)
		}
	}
}
