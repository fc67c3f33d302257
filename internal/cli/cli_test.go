package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseProtocol(t *testing.T) {
	newSet := func() (*flag.FlagSet, *int) {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		return fs, fs.Int("n", 4, "a number")
	}

	fs, n := newSet()
	var out bytes.Buffer
	if ok, err := Parse(fs, []string{"-n", "7"}, &out); !ok || err != nil || *n != 7 || out.Len() != 0 {
		t.Errorf("valid flags: ok=%v err=%v n=%d output %q", ok, err, *n, out.String())
	}

	// -h ends the command cleanly, usage on the writer.
	fs, _ = newSet()
	out.Reset()
	if ok, err := Parse(fs, []string{"-h"}, &out); ok || err != nil {
		t.Errorf("-h: ok=%v err=%v, want the command over with a nil error", ok, err)
	}
	if !strings.Contains(out.String(), "a number") {
		t.Errorf("-h printed no usage: %q", out.String())
	}

	// A parse failure is reported by the flag package; the error returned
	// only tells Main not to print it again.
	fs, _ = newSet()
	out.Reset()
	ok, err := Parse(fs, []string{"-bogus"}, &out)
	if ok || !errors.Is(err, errUsage) {
		t.Errorf("-bogus: ok=%v err=%v, want the usage error", ok, err)
	}
	if !strings.Contains(out.String(), "bogus") {
		t.Errorf("-bogus: the flag package's report is missing from %q", out.String())
	}
}

func TestLoadCampaign(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"name": "tiny", "reps": 2, "nptgs": [2, 3], "platforms": ["lille"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := LoadCampaign(good)
	if err != nil {
		t.Fatal(err)
	}
	if e.Spec.Name != "tiny" || e.NumPoints() != 4 {
		t.Errorf("loaded %q with %d points, want tiny with 4", e.Spec.Name, e.NumPoints())
	}

	if _, err := LoadCampaign(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v, want a not-exist error", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"repz": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaign(bad); err == nil {
		t.Error("a spec with an unknown field loaded")
	}
}
