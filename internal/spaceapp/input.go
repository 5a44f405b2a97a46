package spaceapp

import (
	"fmt"
	"math"

	"dsr/internal/cpu"
	"dsr/internal/loader"
	"dsr/internal/mem"
	"dsr/internal/prng"
)

// ControlInput is one activation's input vector for the control task:
// the raw sensor DMA buffer and the spacecraft uplink mailbox.
type ControlInput struct {
	Raw     []uint32 // RawWords: 16 header words + NumZones wfe floats
	Mailbox []uint32 // MailboxWords command words
}

// GenControlInput synthesises a plausible input: wavefront errors mostly
// inside the ±50 validation window with ~2% outliers (exercising the
// substitution path), and a mailbox with a mix of known and unknown
// opcodes. The same seed always yields the same input.
func GenControlInput(seed uint64) *ControlInput {
	src := prng.NewMWC(seed ^ 0x5EA5)
	in := &ControlInput{
		Raw:     make([]uint32, RawWords),
		Mailbox: make([]uint32, MailboxWords),
	}
	for i := 0; i < 16; i++ {
		in.Raw[i] = src.Uint32()
	}
	for z := 0; z < NumZones; z++ {
		v := float32(src.Float64()*40 - 20) // nominal ±20
		if src.Float64() < 0.02 {
			v *= 5 // occasional out-of-window outlier
		}
		in.Raw[16+z] = math.Float32bits(v)
	}
	for i := range in.Mailbox {
		w := src.Uint32()
		op := uint32(prng.Intn(src, 6)) // opcodes 0..5; 1-3 are known
		in.Mailbox[i] = w&0x0FFFFFFF | op<<28
	}
	return in
}

// ApplyControlInput pokes the input into the loaded image's buffers
// (the DMA delivery of fresh sensor data before an activation).
func ApplyControlInput(m *cpu.Memory, img *loader.Image, in *ControlInput) error {
	raw, ok := img.Symbols[SymSensorRaw]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymSensorRaw)
	}
	mb, ok := img.Symbols[SymMailbox]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymMailbox)
	}
	for i, w := range in.Raw {
		m.StoreWord(raw+mem.Addr(i)*4, w)
	}
	for i, w := range in.Mailbox {
		m.StoreWord(mb+mem.Addr(i)*4, w)
	}
	return nil
}

// Scene is one activation's input for the image-processing task: the
// 12×12 lens array, 34×34 pixels each, row-major by lens then pixel.
type Scene struct {
	Pixels []byte // NumLenses * PixelsPerLens
	// Lit is how many lenses the generator made bright (informative).
	Lit int
}

// GenScene synthesises a lens array in which litFrac of the lenses are
// brightly illuminated (a Gaussian-ish spot) and the rest are dim noise.
// The paper's inputs light around 70% of the lenses.
func GenScene(seed uint64, litFrac float64) *Scene {
	s := &Scene{}
	FillScene(s, seed, litFrac)
	return s
}

// FillScene writes GenScene(seed, litFrac) into s, reusing s.Pixels when
// it already has the scene's length: a host that activates the
// processing task many times keeps one scene buffer.
func FillScene(s *Scene, seed uint64, litFrac float64) {
	fillScene(s, seed, litFrac)
}

// sceneTol is how close to an integer a fast-path pixel value may come
// before the pixel is recomputed with the direct formula. A pixel's byte
// is min(floor(v), 255), so the two paths can only disagree when an
// integer lies between their values. The direct spot is
// 230·exp(−(dx²+dy²)/60); the fast path factors it into
// 230·exp(−dx²/60)·exp(−dy²/60). With u = 2⁻⁵³ and |dx|, |dy| ≤ 20:
//
//   - the direct argument (≤ 800/60 ≈ 13.4) carries 4 roundings, an
//     absolute error ≤ 4·13.4u, and each fast argument 2 roundings on
//     ≤ 6.7, so ≤ 2·13.4u for both: a relative spot error ≤ 80.4u;
//   - three Exp calls (≤ 1 ulp ≤ 2u each) and three products add ≤ 9u.
//
// So the spots differ by ≤ 90u·230 < 2.3e-12, and rounding each sum with
// the noise (< 256) adds one ulp, 2.8e-14: the paths differ by < 2.4e-12
// and sceneTol leaves a margin over 400×. TestGenSceneMatchesDirectFormula
// measures the largest gap on real scenes (≈1.1e-13).
const sceneTol = 1e-9

// fillScene is FillScene. It returns how many pixels took the exact
// fallback, for the test that proves the fallback is exercised.
func fillScene(s *Scene, seed uint64, litFrac float64) (exact int) {
	if len(s.Pixels) != NumLenses*PixelsPerLens {
		s.Pixels = make([]byte, NumLenses*PixelsPerLens)
	}
	s.Lit = 0
	var src prng.MWC
	src.Seed(seed ^ 0xC0DE)
	// ex and ey are the spot's separable factors: one Exp per column
	// and per row instead of one per pixel.
	var ex, ey [LensPixels]float64
	for l := 0; l < NumLenses; l++ {
		lit := src.Float64() < litFrac
		// Spot centre, slightly offset per lens (the wavefront slope).
		cx := float64(LensPixels)/2 + src.Float64()*6 - 3
		cy := float64(LensPixels)/2 + src.Float64()*6 - 3
		lens := (*[PixelsPerLens]byte)(s.Pixels[l*PixelsPerLens:])
		if !lit {
			// Dim noise stays below 30: no clamp, no boundary case.
			for i := range lens {
				lens[i] = byte(src.Float64() * 30)
			}
			continue
		}
		s.Lit++
		for i := range ex {
			dx := float64(i) - cx
			ex[i] = 230 * math.Exp(-(dx*dx)/60)
			dy := float64(i) - cy
			ey[i] = math.Exp(-(dy * dy) / 60)
		}
		for y := 0; y < LensPixels; y++ {
			row := (*[LensPixels]byte)(lens[y*LensPixels:])
			eyy := ey[y]
			for x := range row {
				f := src.Float64()
				v := ex[x]*eyy + f*25
				// v ≥ 0, so truncation is floor.
				if frac := v - float64(int(v)); frac < sceneTol || frac > 1-sceneTol {
					v = directPixel(float64(x)-cx, float64(y)-cy, f)
					exact++
				}
				if v > 255 {
					v = 255
				}
				row[x] = byte(v)
			}
		}
	}
	return exact
}

// directPixel is a lit pixel's value by the direct formula, from its
// offset to the spot centre and its noise draw f.
func directPixel(dx, dy, f float64) float64 {
	v := 230 * math.Exp(-(dx*dx+dy*dy)/60)
	v += f * 25
	return v
}

// ApplyScene pokes the lens images into the processing task's buffer.
func ApplyScene(m *cpu.Memory, img *loader.Image, s *Scene) error {
	base, ok := img.Symbols[SymScene]
	if !ok {
		return fmt.Errorf("spaceapp: image has no %s", SymScene)
	}
	// Pack bytes big-endian into words, as the target stores them.
	for i := 0; i+3 < len(s.Pixels); i += 4 {
		w := uint32(s.Pixels[i])<<24 | uint32(s.Pixels[i+1])<<16 |
			uint32(s.Pixels[i+2])<<8 | uint32(s.Pixels[i+3])
		m.StoreWord(base+mem.Addr(i), w)
	}
	return nil
}
