package httpserve

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	icebergcube "icebergcube"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format files")

// escapeCube is a one-dimension cube whose values need every kind of JSON
// string escaping and whose measures exercise every float format the wire
// uses: integral, shortest decimal, exponent, negative zero.
func escapeCube(t *testing.T) *icebergcube.Materialized {
	t.Helper()
	values := []string{"<a&b>", `"quoted"`, `back\slash`, "tab\tnl\nbell\x07\b\f", "sep\u2028para\u2029", "bad\xffutf8", "plain"}
	measures := []float64{0.1, 1e-7, 1e15 + 1, 1e21, -1e21, math.Copysign(0, -1), 9007199254740993, 2.5e-300}
	var rows [][]string
	var meas []float64
	for i, v := range values {
		for j := 0; j <= i%3; j++ {
			rows = append(rows, []string{v})
			meas = append(meas, measures[(i+j)%len(measures)])
		}
	}
	ds, err := icebergcube.FromRows([]string{"Odd<Name>"}, rows, meas)
	if err != nil {
		t.Fatal(err)
	}
	m, err := icebergcube.Materialize(ds, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenWireFormat pins the exact bytes of the /v1/query JSON and
// NDJSON contracts. If this test fails you changed the wire format: bump
// it deliberately (go test ./internal/httpserve -run Golden
// -update-golden) and say so in the changelog — external clients parse
// these bytes.
func TestGoldenWireFormat(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	escapes := New(Config{Backend: Warm(escapeCube(t))})
	cases := []struct {
		name string
		srv  *Server
		url  string
	}{
		{"all_cell", s, "/v1/query"},
		{"model_year_minsup3", s, "/v1/query?group_by=Model,Year&min_support=3"},
		{"full_lattice_leaf", s, "/v1/query?group_by=Model,Year,Color&min_support=4"},
		{"reordered_groupby", s, "/v1/query?group_by=Year,Model&min_support=3"},
		{"empty_answer", s, "/v1/query?group_by=Model&min_support=1000"},
		{"stream_model_color", s, "/v1/query?group_by=Color,Model&min_support=2&stream=1"},
		{"stream_all_cell", s, "/v1/query?stream=1"},
		{"stream_empty_answer", s, "/v1/query?group_by=Model&min_support=1000&stream=1"},
		{"escapes_and_floats", escapes, "/v1/query?group_by=Odd<Name>"},
		{"stream_escapes_and_floats", escapes, "/v1/query?group_by=Odd<Name>&stream=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, tc.srv, tc.url, nil)
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			path := filepath.Join("testdata", tc.name+".golden.json")
			if strings.Contains(tc.url, "stream=1") {
				path = filepath.Join("testdata", tc.name+".golden.ndjson")
			}
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
