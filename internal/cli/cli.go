// Package cli is the skeleton the ptg* commands share: the main wrapper
// around a testable run function, the flag-parse protocol, and the one way
// a campaign spec file becomes an expansion.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ptgsched/internal/scenario"
)

// errUsage signals a flag-parse failure the flag package already reported
// to the output writer; Main exits nonzero without printing it twice.
var errUsage = errors.New("usage")

// Main runs a command's testable core on the process's arguments and
// stdout; a failure is reported to stderr prefixed with the command's name
// and exits 1.
func Main(name string, run func(argv []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, name+":", err)
		}
		os.Exit(1)
	}
}

// Parse parses argv into fs, with usage and parse errors written to w. When
// ok is false the command is over and its run function returns err as is:
// nil after -h (usage printed, exit 0), the usage error after a parse
// failure the flag package already reported.
func Parse(fs *flag.FlagSet, argv []string, w io.Writer) (ok bool, err error) {
	fs.SetOutput(w)
	switch perr := fs.Parse(argv); {
	case perr == nil:
		return true, nil
	case errors.Is(perr, flag.ErrHelp):
		return false, nil
	default:
		return false, errUsage
	}
}

// LoadCampaign reads, parses and expands the campaign spec file at path.
// The expansion is lazy — no point is generated — and carries the parsed
// spec as its Spec field.
func LoadCampaign(path string) (*scenario.Expansion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return scenario.Expand(spec)
}
