package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func tinyRun(t *testing.T, workload string, seed int64, trace bool) (*run, *result) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 10, trace: trace, tiny: true, outDir: t.TempDir()}
	r, res, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d: %v",
			workload, seed, trace, res.Correct, res.Attempted, res.Failed, r.problems)
	}
	return r, res
}

// exactCounts are per-layer metrics that count rather than time: with
// one client and a fixed seed they must repeat exactly.
var exactCounts = []string{
	"core.cells_written", "core.virtual_makespan_s", "core.spill_bytes",
	"segment.bytes_per_row", "segment.bytes_read_per_query",
	"serve.evictions", "serve.hit_ratio", "serve.cells_scanned_per_query",
	"ingest.folded_cuboids_per_commit", "wal.syncs_per_commit", "wal.bytes_per_row",
	"httpserve.bytes_per_cell", "httpserve.shed",
}

// TestSmoke runs every workload at -scale tiny, untraced and traced:
// each emits exactly its mode's named metrics, finite and with the
// declared unit; the same seed gives the same op sequence and the same
// exact counts twice, and another seed gives another sequence.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel() // the stacks share nothing; only timings suffer, and none is asserted
			r1, res := tinyRun(t, wl.name, 1, false)
			checkMetrics(t, res, endToEnd, true)
			r2, _ := tinyRun(t, wl.name, 2, false)
			if len(r1.seq) == 0 || slices.Equal(r1.seq, r2.seq) {
				t.Errorf("seeds 1 and 2 gave the same op sequence %v", r1.seq)
			}

			ra, a := tinyRun(t, wl.name, 1, true)
			checkMetrics(t, a, perLayer, false)
			rb, b := tinyRun(t, wl.name, 1, true)
			if !slices.Equal(ra.seq, rb.seq) {
				t.Errorf("seed 1 gave two op sequences:\n%v\n%v", ra.seq, rb.seq)
			}
			// A traced run replays the start of the untraced sequence (the
			// batch jobs have no order to replay).
			if n := len(ra.seq); n > len(r1.seq) || !slices.Equal(ra.seq, r1.seq[:n]) {
				t.Errorf("the traced sequence is not a prefix of the untraced one:\n%v\n%v", ra.seq, r1.seq)
			}
			for _, name := range exactCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			spans, err := os.ReadFile(filepath.Join(rb.cfg.outDir, "trace-"+wl.name+".jsonl"))
			if err != nil || len(spans) == 0 {
				t.Errorf("span file: %d bytes, %v", len(spans), err)
			}
		})
	}
}

func checkMetrics(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.name)
		case m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s has unit %q, declared %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, m.Value)
		}
	}
}

// TestSpecAgrees: BENCHMARK.json names the same workloads and metrics,
// with the same units, as the program emits.
func TestSpecAgrees(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", got, want)
	}
	got, want = nil, nil
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", got, want)
	}
	got, want = nil, nil
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", got, want)
	}
}

// TestCompare: -compare passes a pair inside every bound, fails one
// outside, and treats a higher-is-better metric the right way round.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, perSec float64) string {
		rec := record{Workload: "serve_hot", result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"setup_s": {1, "s"}, "op_p50_ms": {p50, "ms"}, "op_p90_ms": {2, "ms"},
			"ops_per_s": {perSec, "1/s"}, "live_heap_mb": {100, "MB"},
		}}}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 1.00, 1000)
	for _, tc := range []struct {
		name        string
		p50, perSec float64
		ok          bool
	}{
		{"same", 1.00, 1000, true},
		{"inside", 1.05, 950, true},
		{"better", 0.50, 2000, true},
		{"slower", 1.40, 1000, false},
		{"less-throughput", 1.00, 600, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, "../BENCHMARK.json", base, write(tc.name+".jsonl", tc.p50, tc.perSec))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare says %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		if rows := strings.Count(out.String(), "serve_hot"); rows != len(endToEnd) {
			t.Errorf("%s: %d rows, want one per end-to-end metric", tc.name, rows)
		}
	}
}
