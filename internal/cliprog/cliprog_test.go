package cliprog

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "clean.s")
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dsrlint", "testdata", "clean.s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, builtin string
		args          []string
		wantErr       string // "" for success
		wantLines     bool
	}{
		{"builtin control", "control", nil, "", false},
		{"builtin processing", "processing", nil, "", false},
		{"builtin ignores args", "control", []string{"a.s", "b.s"}, "", false},
		{"file", "", []string{src}, "", true},
		{"unknown builtin", "nope", nil, `unknown builtin "nope" (want control or processing)`, false},
		{"no argument", "", nil, "usage: tool [flags] prog.s | tool -builtin control|processing", false},
		{"two arguments", "", []string{src, src}, "usage: tool [flags] prog.s | tool -builtin control|processing", false},
		{"missing file", "", []string{filepath.Join(dir, "nope.s")}, "open " + filepath.Join(dir, "nope.s") + ": no such file or directory", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, lines, err := Load("tool", tc.builtin, tc.args)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if p == nil || len(p.Functions) == 0 {
				t.Fatal("no program")
			}
			if (lines != nil) != tc.wantLines {
				t.Fatalf("line resolver present = %v, want %v", lines != nil, tc.wantLines)
			}
			if lines != nil {
				if _, ok := lines(p.Functions[0].Name, 0); !ok {
					t.Errorf("no source line for %s[0]", p.Functions[0].Name)
				}
			}
		})
	}
}

func TestBuiltin(t *testing.T) {
	for _, name := range []string{"control", "processing"} {
		build, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		if _, err := build(); err != nil {
			t.Fatalf("build %q: %v", name, err)
		}
	}
	if _, ok := Builtin("casestudy"); ok {
		t.Fatal("unknown builtin resolved")
	}
}
