package main

// Golden CLI tests (see internal/clitest): ptgtrace's stdout for fixed
// seeds is captured under testdata/*.golden; refresh with
// `go test ./cmd/ptgtrace -update`. The generate golden doubles as the
// input trace of the inspect and replay goldens, so the three stay
// mutually consistent.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptgsched/internal/clitest"
)

func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	return clitest.Run(t, run, args...)
}

// generateArgs pins the deterministic workload all three goldens share.
var generateArgs = []string{
	"-mode", "generate", "-family", "strassen", "-count", "3",
	"-process", "uniform", "-rate", "0.5", "-seed", "4",
}

func TestGoldenGenerate(t *testing.T) {
	clitest.CheckGolden(t, "trace.golden.json", runCLI(t, generateArgs...))
}

func TestGoldenInspect(t *testing.T) {
	clitest.CheckGolden(t, "inspect.golden",
		runCLI(t, "-mode", "inspect", "-in", "testdata/trace.golden.json"))
}

func TestGoldenReplay(t *testing.T) {
	clitest.CheckGolden(t, "replay.golden",
		runCLI(t, "-mode", "replay", "-in", "testdata/trace.golden.json",
			"-platform", "lille", "-strategy", "ES"))
}

func TestGenerateWritesToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	runCLI(t, append(append([]string{}, generateArgs...), "-out", out)...)
	fromFile, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile, runCLI(t, generateArgs...)) {
		t.Error("-out file differs from stdout output")
	}
}

func TestHelpExitsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(buf.String(), "-mode") {
		t.Fatal("-h did not print usage")
	}
}

// TestFlagsOutsideTheirModeAreRefused: a flag the run's mode does not
// read is an error naming it (cli.Scope), and nothing is written — inspect
// writes no trace file.
func TestFlagsOutsideTheirModeAreRefused(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.json")
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "inspect", "-in", "testdata/trace.golden.json", "-out", out}, "-out"},
	} {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.flag+" requires") {
			t.Errorf("%v: got %v, want a %q error", c.args, err, c.flag+" requires")
		}
		if _, serr := os.Stat(out); serr == nil {
			t.Errorf("%v wrote %s", c.args, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-mode", "bogus"}, &buf); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "inspect"}, &buf); err == nil {
		t.Error("inspect without -in accepted")
	}
	if err := run([]string{"-mode", "generate", "-family", "weird"}, &buf); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestEmptyTraceIsAnError: a trace without arrivals (`[]` or `null`) is
// refused by the reader, so replay returns an error instead of panicking
// in the scheduler, and inspect does not print an empty table.
func TestEmptyTraceIsAnError(t *testing.T) {
	for _, body := range []string{"[]", "null"} {
		in := filepath.Join(t.TempDir(), "empty.json")
		if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"replay", "inspect"} {
			var buf bytes.Buffer
			if err := run([]string{"-mode", mode, "-in", in}, &buf); err == nil || !strings.Contains(err.Error(), "no arrivals") {
				t.Errorf("-mode %s on %s: err = %v, want a no-arrivals error", mode, body, err)
			}
		}
	}
}
