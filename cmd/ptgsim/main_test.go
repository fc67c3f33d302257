package main

// Golden CLI tests (see internal/clitest): ptgsim's stdout for fixed
// seeds is captured under testdata/*.golden; refresh with
// `go test ./cmd/ptgsim -update`.

import (
	"bytes"
	"strings"
	"testing"

	"ptgsched/internal/clitest"
)

func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	return clitest.Run(t, run, args...)
}

func TestGoldenBatch(t *testing.T) {
	clitest.CheckGolden(t, "batch.golden",
		runCLI(t, "-platform", "lille", "-family", "strassen", "-n", "2", "-strategy", "ES", "-seed", "3"))
}

func TestGoldenBatchGantt(t *testing.T) {
	clitest.CheckGolden(t, "batch_gantt.golden",
		runCLI(t, "-platform", "nancy", "-family", "fft", "-n", "2", "-strategy", "WPS-work", "-seed", "7", "-gantt"))
}

func TestGoldenCampaignList(t *testing.T) {
	clitest.CheckGolden(t, "campaign_list.golden",
		runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-list"))
}

func TestGoldenCampaignPoint(t *testing.T) {
	clitest.CheckGolden(t, "campaign_point.golden",
		runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-point", "strassen/n=3/rep=1/Rennes"))
}

func TestGoldenCampaignPointByIndex(t *testing.T) {
	// The same point addressed by global index prints identically.
	byName := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-point", "strassen/n=2/rep=0/Lille")
	byIdx := runCLI(t, "-campaign", "testdata/smoke-campaign.json", "-point", "0")
	if !bytes.Equal(byName, byIdx) {
		t.Error("point by name and by index print differently")
	}
}

func TestGoldenCampaignOnlinePoint(t *testing.T) {
	clitest.CheckGolden(t, "campaign_online_point.golden",
		runCLI(t, "-campaign", "testdata/online-campaign.json", "-point", "random+poisson@0.25/n=3/rep=0/Nancy"))
}

func TestHelpExitsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(buf.String(), "-platform") {
		t.Fatal("-h did not print usage")
	}
}

// TestFlagsOutsideTheirModeAreRefused: a flag the run's mode does not
// read is an error naming it (cli.Scope) — a campaign point prints no
// schedule JSON.
func TestFlagsOutsideTheirModeAreRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-campaign", "testdata/smoke-campaign.json", "-point", "0", "-json"}, "-json"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag+" requires") {
			t.Errorf("%v: got %v, want a %q error", c.args, err, c.flag+" requires")
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-platform", "mars"}, &buf); err == nil {
		t.Error("unknown platform accepted")
	}
	if err := run([]string{"-campaign", "testdata/smoke-campaign.json"}, &buf); err == nil {
		t.Error("-campaign without -point or -list accepted")
	}
	if err := run([]string{"-campaign", "testdata/smoke-campaign.json", "-point", "nope"}, &buf); err == nil {
		t.Error("unknown point accepted")
	}
	if err := run([]string{"-point", "0"}, &buf); err == nil {
		t.Error("-point without -campaign accepted")
	}
}
