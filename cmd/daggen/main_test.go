package main

// Golden CLI tests (see internal/clitest): daggen's output for a fixed
// seed is captured under testdata/*.golden; refresh with
// `go test ./cmd/daggen -update`.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptgsched/internal/clitest"
)

func TestGoldenGraphs(t *testing.T) {
	for _, family := range []string{"random", "fft", "strassen"} {
		for _, format := range []string{"json", "dot"} {
			name := family + "-" + format
			t.Run(name, func(t *testing.T) {
				out := clitest.Run(t, run, "-family", family, "-seed", "7", "-format", format)
				clitest.CheckGolden(t, name+".golden", out)

				path := filepath.Join(t.TempDir(), name)
				if got := clitest.Run(t, run, "-family", family, "-seed", "7", "-format", format, "-out", path); len(got) != 0 {
					t.Errorf("-out also wrote %d bytes to stdout", len(got))
				}
				file, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(file, out) {
					t.Errorf("-out file differs from stdout")
				}
			})
		}
	}
}

// A rejected invocation creates no -out file.
func TestRejectsBeforeCreatingOut(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "svg"},
		{"-family", "cholesky"},
	} {
		path := filepath.Join(t.TempDir(), "g")
		err := run(append(args, "-out", path), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("%v: got %v, want an unknown-value error", args, err)
		}
		if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%v: -out file left behind (stat: %v)", args, serr)
		}
	}
}

// TestFlagsOutsideTheirFamilyAreRefused: a shape flag of another family is
// an error naming it (cli.Scope), and no -out file is created.
func TestFlagsOutsideTheirFamilyAreRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-family", "fft", "-tasks", "50"}, "-tasks"},
		{[]string{"-family", "strassen", "-k", "5"}, "-k"},
	} {
		path := filepath.Join(t.TempDir(), "g")
		err := run(append(c.args, "-out", path), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag+" requires") {
			t.Errorf("%v: got %v, want a %q error", c.args, err, c.flag+" requires")
		}
		if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%v: -out file left behind (stat: %v)", c.args, serr)
		}
	}
}

func TestHelpExitsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(buf.String(), "-family") {
		t.Errorf("usage does not list -family:\n%s", buf.String())
	}
}
