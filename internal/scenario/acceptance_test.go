package scenario

// Acceptance tests over the checked-in specs: examples/campaign.json must
// reproduce the paper's Figure 3 campaign bit-identically through the
// declarative engine — both unsharded and recombined from four freshly-run
// shards — and every spec under examples/campaigns must stay in sync with
// its PaperSpec definition. The full-campaign test runs ~100 scheduling
// runs per point and is skipped under -short.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ptgsched/internal/experiment"
)

// readSpec loads a checked-in spec relative to the repository root.
func readSpec(t *testing.T, rel string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("%s: %v", rel, err)
	}
	return spec
}

func TestCheckedInSpecsMatchPaperSpecs(t *testing.T) {
	cases := []struct{ rel, name string }{
		{"examples/campaign.json", "fig3"},
		{"examples/campaigns/fig2.json", "fig2"},
		{"examples/campaigns/fig3.json", "fig3"},
		{"examples/campaigns/fig4.json", "fig4"},
		{"examples/campaigns/fig5.json", "fig5"},
	}
	for _, c := range cases {
		data, err := os.ReadFile(filepath.Join("..", "..", c.rel))
		if err != nil {
			t.Fatal(err)
		}
		want, err := PaperSpec(c.name, 42, 25)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, '\n')
		if !bytes.Equal(bytes.TrimSpace(data), bytes.TrimSpace(wantJSON)) {
			t.Errorf("%s drifted from PaperSpec(%q, 42, 25):\n--- file ---\n%s\n--- want ---\n%s",
				c.rel, c.name, data, wantJSON)
		}
	}
}

// TestExampleCampaignReproducesFig3 is the acceptance criterion: the
// checked-in examples/campaign.json, swept through the declarative engine,
// reproduces experiment.Run(Fig3Config(42, 25)) bit-identically — once as
// a single unsharded run and once recombined from four independently-run
// shards.
func TestExampleCampaignReproducesFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 3 campaign (3×500 runs); run without -short")
	}
	spec := readSpec(t, "examples/campaign.json")
	e, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.Run(experiment.Fig3Config(42, 25))

	// Unsharded, streamed through the incremental aggregator exactly as
	// ptgbench's campaign mode runs it.
	agg := e.NewAggregator()
	if err := e.RunEach(e.All(), 0, agg.Add); err != nil {
		t.Fatal(err)
	}
	tables, err := agg.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}
	if !reflect.DeepEqual(tables[0].Result.Points, want.Points) {
		t.Fatal("unsharded examples/campaign.json does not reproduce Fig. 3 bit-identically")
	}

	// Recombined from shards 0/4..3/4, each run independently and
	// round-tripped through the JSONL wire format.
	var merged []PointResult
	for _, shard := range []int{3, 1, 0, 2} {
		set, err := e.Shard(shard, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, mustRun(t, e, set, 0)); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, back...)
	}
	recombined, err := e.Aggregate(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recombined[0].Result.Points, want.Points) {
		t.Fatal("shard-recombined examples/campaign.json does not reproduce Fig. 3 bit-identically")
	}
}
