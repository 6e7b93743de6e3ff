package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the figure tables in testdata/figures.golden.json")

// goldenPath holds every pinned figure table, keyed by table ID. JSON
// writes each float64 in the shortest form that parses back to the same
// bits, so the comparison is exact.
var goldenPath = filepath.Join("testdata", "figures.golden.json")

func readGolden(t *testing.T) map[string]*Table {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *updateGolden {
		return map[string]*Table{}
	}
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var tables map[string]*Table
	if err := json.Unmarshal(raw, &tables); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return tables
}

// checkGolden compares a figure table, every series, point and note,
// against the one recorded in the golden file. The tables are virtual
// time from the cost model, so they depend on the algorithms and the
// simulator and on nothing about the host. If this test fails a change
// moved a reproduced figure: regenerate deliberately (go test
// ./internal/exp -run 'Fig|Sec' -update-golden) and say which figure
// moved and why.
func checkGolden(t *testing.T, tbl *Table) {
	t.Helper()
	tables := readGolden(t)
	if *updateGolden {
		tables[tbl.ID] = tbl
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := tables[tbl.ID]
	if !ok {
		t.Fatalf("%s: no table %q (run with -update-golden to add it)", goldenPath, tbl.ID)
	}
	got, _ := json.Marshal(tbl)
	exp, _ := json.Marshal(want)
	if !bytes.Equal(got, exp) {
		t.Errorf("%s drifted from %s:\ngot:  %s\nwant: %s", tbl.ID, goldenPath, got, exp)
	}
}
