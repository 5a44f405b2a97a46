package wcet

import "testing"

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeDet, ModeDSREager, ModeDSRLazy} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, s := range []string{"", "eager", "DET", "Mode(0)"} {
		_, err := ParseMode(s)
		want := `unknown mode "` + s + `" (want det, dsr-eager or dsr-lazy)`
		if err == nil || err.Error() != want {
			t.Errorf("ParseMode(%q) error = %v, want %q", s, err, want)
		}
	}
}
