// Package cliprog resolves the program a command-line analyzer works
// on: one of the built-in case-study programs, or an assembly file
// given as the single positional argument.
package cliprog

import (
	"fmt"
	"os"

	"dsr/internal/analysis"
	"dsr/internal/asm"
	"dsr/internal/prog"
	"dsr/internal/spaceapp"
)

// builtins maps each -builtin name to its program builder.
var builtins = map[string]func() (*prog.Program, error){
	"control":    spaceapp.BuildControl,
	"processing": spaceapp.BuildProcessing,
}

// Builtin returns the builder of the named built-in program (control or
// processing), or false when there is no such program.
func Builtin(name string) (func() (*prog.Program, error), bool) {
	build, ok := builtins[name]
	return build, ok
}

// Load returns the built-in program named by builtin or, when builtin
// is empty, assembles the single file in args; for a file it also
// returns the resolver from instructions to source lines. tool names
// the command in the usage error.
func Load(tool, builtin string, args []string) (*prog.Program, analysis.LineResolver, error) {
	if builtin != "" {
		build, ok := Builtin(builtin)
		if !ok {
			return nil, nil, fmt.Errorf("unknown builtin %q (want control or processing)", builtin)
		}
		p, err := build()
		return p, nil, err
	}
	if len(args) != 1 {
		return nil, nil, fmt.Errorf("usage: %s [flags] prog.s | %s -builtin control|processing", tool, tool)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, nil, err
	}
	p, info, err := asm.AssembleWithInfo(string(src))
	if err != nil {
		return nil, nil, err
	}
	return p, info.InstrLine, nil
}
