package spaceapp

import (
	"bytes"
	"math"
	"testing"

	"dsr/internal/prng"
)

// directScene computes a scene by the direct per-pixel formula, one Exp
// per lit pixel: the specification the separable fast path must
// reproduce byte for byte. maxDiff reports the largest gap between the
// direct value and the fast path's separable candidate over all lit
// pixels.
func directScene(seed uint64, litFrac float64) (s *Scene, maxDiff float64) {
	src := prng.NewMWC(seed ^ 0xC0DE)
	s = &Scene{Pixels: make([]byte, NumLenses*PixelsPerLens)}
	for l := 0; l < NumLenses; l++ {
		lit := prng.Float64(src) < litFrac
		if lit {
			s.Lit++
		}
		cx := float64(LensPixels)/2 + prng.Float64(src)*6 - 3
		cy := float64(LensPixels)/2 + prng.Float64(src)*6 - 3
		base := l * PixelsPerLens
		for y := 0; y < LensPixels; y++ {
			for x := 0; x < LensPixels; x++ {
				var v float64
				if lit {
					dx := float64(x) - cx
					dy := float64(y) - cy
					v = 230 * math.Exp(-(dx*dx+dy*dy)/60)
					f := prng.Float64(src)
					v += f * 25
					cand := 230*math.Exp(-(dx*dx)/60)*math.Exp(-(dy*dy)/60) + f*25
					maxDiff = math.Max(maxDiff, math.Abs(cand-v))
				} else {
					v = prng.Float64(src) * 30
				}
				if v > 255 {
					v = 255
				}
				s.Pixels[base+y*LensPixels+x] = byte(v)
			}
		}
	}
	return s, maxDiff
}

// TestGenSceneMatchesDirectFormula: the separable fast path yields the
// direct formula's bytes, its error stays far inside sceneTol, and the
// exact fallback is taken on real inputs (so it is covered, not just
// present).
func TestGenSceneMatchesDirectFormula(t *testing.T) {
	// Seed 4 has a lit pixel 9.1e-10 above 209: the fallback's case.
	const seeds = 200
	var exact int
	var maxDiff float64
	s := &Scene{}
	for seed := uint64(0); seed < seeds; seed++ {
		for _, frac := range pinFractions {
			want, diff := directScene(seed, frac)
			maxDiff = math.Max(maxDiff, diff)
			exact += fillScene(s, seed, frac)
			if s.Lit != want.Lit || !bytes.Equal(s.Pixels, want.Pixels) {
				t.Fatalf("seed %d frac %g: fast path differs from the direct formula", seed, frac)
			}
		}
	}
	t.Logf("%d seeds: %d exact fallbacks, max |fast-direct| = %.3g", seeds, exact, maxDiff)
	if maxDiff*100 > sceneTol {
		t.Errorf("fast-path error %.3g leaves under 100x margin to sceneTol %g", maxDiff, sceneTol)
	}
	if exact == 0 {
		t.Error("the exact fallback never fired")
	}
}
