package experiment

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"ptgsched/internal/daggen"
	"ptgsched/internal/platform"
)

// smallConfig keeps campaign tests fast: one platform, few reps, two
// points.
func smallConfig(family daggen.Family) Config {
	return Config{
		Family:    family,
		NPTGs:     []int{2, 4},
		Reps:      2,
		Platforms: []*platform.Platform{platform.Lille()},
		Seed:      7,
	}
}

func TestRunProducesAlignedPoints(t *testing.T) {
	res := Run(smallConfig(daggen.FamilyRandom))
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	ns := len(res.Config.Strategies)
	if ns != 8 {
		t.Fatalf("%d strategies, want 8 for random family", ns)
	}
	for _, pt := range res.Points {
		if pt.Runs != 2 {
			t.Errorf("point %d aggregated %d runs, want 2", pt.NPTGs, pt.Runs)
		}
		for _, series := range [][]float64{pt.Unfairness, pt.AvgMakespan, pt.RelMakespan} {
			if len(series) != ns {
				t.Fatalf("series length %d, want %d", len(series), ns)
			}
		}
		for s := 0; s < ns; s++ {
			if pt.Unfairness[s] < 0 {
				t.Errorf("negative unfairness")
			}
			if pt.AvgMakespan[s] <= 0 {
				t.Errorf("non-positive makespan")
			}
			if pt.RelMakespan[s] < 1 {
				t.Errorf("relative makespan %g < 1", pt.RelMakespan[s])
			}
		}
	}
}

func TestSameCombinationAcrossPlatforms(t *testing.T) {
	// The paper schedules the same 25 PTG combinations on all 4 platforms.
	if RunSeed(42, 0, 3) != RunSeed(42, 0, 3) {
		t.Fatal("PTG combination seed differs across platforms")
	}
	if RunSeed(42, 0, 3) == RunSeed(42, 0, 4) {
		t.Fatal("different reps share a seed")
	}
}

func TestRenderTable(t *testing.T) {
	res := Run(smallConfig(daggen.FamilyRandom))
	var buf bytes.Buffer
	if err := res.RenderTable(&buf, Unfairness); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"unfairness", "#PTGs", "WPS-work", "S"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	res := Run(smallConfig(daggen.FamilyFFT))
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(res.Points)*len(res.Config.Strategies)
	if len(records) != want {
		t.Fatalf("%d CSV records, want %d", len(records), want)
	}
	if records[0][0] != "family" {
		t.Errorf("header = %v", records[0])
	}
}

func TestMetricString(t *testing.T) {
	if Unfairness.String() != "unfairness" || RelMakespan.String() != "average relative makespan" {
		t.Fatal("Metric.String mismatch")
	}
}

func TestDefaultsFillPaperProtocol(t *testing.T) {
	cfg := Config{Family: daggen.FamilyRandom}.Defaults()
	if len(cfg.NPTGs) != 5 || cfg.NPTGs[0] != 2 || cfg.NPTGs[4] != 10 {
		t.Errorf("NPTGs = %v", cfg.NPTGs)
	}
	if cfg.Reps != 25 {
		t.Errorf("Reps = %d, want 25", cfg.Reps)
	}
	if len(cfg.Platforms) != 4 {
		t.Errorf("%d platforms, want 4", len(cfg.Platforms))
	}
	if cfg.Reps*len(cfg.Platforms) != 100 {
		t.Error("runs per point != 100")
	}
}

func TestResultString(t *testing.T) {
	cfg := Config{Family: daggen.FamilyFFT, Reps: 3, Platforms: platform.Grid5000Sites()}.Defaults()
	r := &Result{Config: cfg, Points: make([]Point, 5)}
	want := fmt.Sprintf("experiment(fft, %d strategies, 5 points, 12 runs/point)", len(cfg.Strategies))
	if got := r.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
