package scenario

// The online-cell record golden. testdata/online-cells.golden holds the
// JSONL records of onlineCellsSpec — burst and poisson arrivals, two
// rates, every paper strategy — as the byte-sorted line set written by
// `ptgbench -campaign -jsonl` at the commit before the online and dynamic
// point runners were folded into one. Memo's contract makes every cache
// entry already on disk a promise about RunPoint's bytes, so these records
// may not move by a bit, at any worker count. Do not regenerate the file
// to make this test pass.

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

const onlineCellsSpec = `{
  "name": "online-cells", "seed": 11, "reps": 2, "nptgs": [3, 5],
  "platforms": ["lille", "rennes"],
  "online": {"processes": ["burst", "poisson"], "rates": [0.1, 0.5]}
}`

func TestOnlineCellRecordsMatchGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "online-cells.golden"))
	if err != nil {
		t.Fatal(err)
	}
	e := mustExpand(t, mustParse(t, onlineCellsSpec))
	for _, workers := range []int{1, 4} {
		var lines []string
		if err := e.Each(e.All(), SweepOptions{Workers: workers}, func(r PointResult) error {
			line, err := AppendJSONL(nil, r)
			lines = append(lines, string(line))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		var got bytes.Buffer
		for _, l := range lines {
			got.WriteString(l)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("workers=%d: online-cell records moved off testdata/online-cells.golden\n--- got ---\n%s--- want ---\n%s",
				workers, got.Bytes(), want)
		}
	}
}
