package httpserve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format files")

// TestGoldenWireFormat pins the exact bytes of the /v1/query JSON
// contract. If this test fails you changed the wire format: bump it
// deliberately (go test ./internal/httpserve -run Golden -update-golden)
// and say so in the changelog — external clients parse these bytes.
func TestGoldenWireFormat(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
	}{
		{"all_cell", "/v1/query"},
		{"model_year_minsup3", "/v1/query?group_by=Model,Year&min_support=3"},
		{"full_lattice_leaf", "/v1/query?group_by=Model,Year,Color&min_support=4"},
		{"reordered_groupby", "/v1/query?group_by=Year,Model&min_support=3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, s, tc.url, nil)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("wire format drifted from %s:\ngot:  %s\nwant: %s", path, rec.Body, want)
			}
		})
	}
}
