package icebergcube

// The serving-layer oracle: cache-served and ancestor-served answers must
// be byte-identical to (a) the legacy full-leaf rescan, (b) the full cube
// computed by the parallel algorithms, and (c) an independent per-row
// naive aggregation over the raw data set — across fuzzed query
// workloads, minsup values, eviction-pressure budgets, and concurrent
// queriers (the concurrent test runs under -race in `make race`, CI's
// race job).

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// renderCells renders an Answer deterministically for byte comparison.
func renderCells(cells []Cell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s min=%g max=%g avg=%g\n", c.String(), c.Min, c.Max, c.Avg)
	}
	return b.String()
}

// randomGroupBys draws a fuzzed query workload over dims: random subsets
// (including the empty group-by and repeats, so the cache path is
// exercised), in random order.
func randomGroupBys(dims []string, n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		var gb []string
		for _, d := range dims {
			if rng.Intn(2) == 0 {
				gb = append(gb, d)
			}
		}
		out = append(out, gb)
	}
	return out
}

// TestServingMatchesLeafRescanAndCube: fuzzed workloads across budgets
// (tight enough to force evictions, and roomy) and minsup values — every
// Answer equals the legacy leaf rescan and the full cube's cuboid.
func TestServingMatchesLeafRescanAndCube(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D", "E"}, []int{7, 5, 4, 3, 6}, []float64{2, 1, 1.5, 1, 3}, 2000, 41)
	mat, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compute(ds, Query{MinSupport: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1 << 10, 64 << 20} {
		mat.SetCacheBudget(budget)
		mat.ResetCache()
		for _, minsup := range []int64{1, 2, 5} {
			for qi, gb := range randomGroupBys(ds.DimNames(), 40, 1000*budget+minsup) {
				got, stats, err := mat.AnswerStats(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				legacy, err := mat.answerLeafRescan(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				if g, l := renderCells(got), renderCells(legacy); g != l {
					t.Fatalf("budget=%d minsup=%d q%d %v (stats %+v): serving != leaf rescan:\n%s",
						budget, minsup, qi, gb, stats, firstDiffLine(l, g))
				}
				// The cube filters at query time too (minsup-1 cube).
				cube, err := full.Cuboid(gb...)
				if err != nil {
					t.Fatal(err)
				}
				kept := cube[:0:0]
				for _, c := range cube {
					if c.Count >= minsup {
						kept = append(kept, c)
					}
				}
				if g, w := renderCells(got), renderCells(kept); g != w {
					t.Fatalf("budget=%d minsup=%d q%d %v: serving != cube:\n%s",
						budget, minsup, qi, gb, firstDiffLine(w, g))
				}
			}
		}
		m := mat.CacheMetrics()
		if m.ResidentBytes > m.BudgetBytes {
			t.Fatalf("budget violated: %+v", m)
		}
		if budget == 1<<10 && m.Evictions == 0 {
			t.Fatalf("tight budget produced no evictions: %+v", m)
		}
	}
}

// TestServingMatchesNaiveRowScan: an independent reimplementation —
// grouping the raw rows directly, never touching the cube code — agrees
// with the served answers.
func TestServingMatchesNaiveRowScan(t *testing.T) {
	names := []string{"A", "B", "C"}
	ds := Synthetic(names, []int{5, 4, 3}, nil, 900, 43)
	mat, err := Materialize(ds, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Re-read the rows through the public CSV round trip so this check
	// shares no decoding path with the serving layer.
	var csv strings.Builder
	if err := ds.WriteCSV(&csv, "m"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	header := strings.Split(lines[0], ",")
	rows := make([][]string, 0, len(lines)-1)
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	for _, gb := range [][]string{{"A"}, {"B", "C"}, {"A", "B", "C"}, {}} {
		cols := make([]int, len(gb))
		for i, g := range gb {
			for j, h := range header {
				if h == g {
					cols[i] = j
				}
			}
		}
		type ref struct {
			count int64
			sum   float64
		}
		want := map[string]ref{}
		for _, r := range rows {
			parts := make([]string, len(cols))
			for i, c := range cols {
				parts[i] = r[c]
			}
			k := strings.Join(parts, "\x00")
			var meas float64
			fmt.Sscanf(r[len(r)-1], "%g", &meas)
			w := want[k]
			w.count++
			w.sum += meas
			want[k] = w
		}
		for _, minsup := range []int64{1, 3} {
			cells, err := mat.Answer(gb, minsup)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, w := range want {
				if w.count >= minsup {
					n++
				}
			}
			if len(cells) != n {
				t.Fatalf("%v minsup=%d: %d cells, naive says %d", gb, minsup, len(cells), n)
			}
			for _, c := range cells {
				k := strings.Join(c.Values, "\x00")
				w, ok := want[k]
				if !ok {
					t.Fatalf("%v: cell %v not in naive row scan", gb, c.Values)
				}
				if c.Count != w.count || math.Abs(c.Sum-w.sum) > 1e-6*(1+math.Abs(w.sum)) {
					t.Fatalf("%v cell %v: count=%d sum=%g, naive count=%d sum=%g",
						gb, c.Values, c.Count, c.Sum, w.count, w.sum)
				}
			}
		}
	}
}

// TestServingConcurrentQueriers: racing queriers over a tight-budget
// cache all receive the single-threaded answers.
func TestServingConcurrentQueriers(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{6, 5, 4, 3}, []float64{2, 1, 1, 1.5}, 1500, 47)
	mat, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	mat.SetCacheBudget(2 << 10) // eviction pressure while racing
	queries := randomGroupBys(ds.DimNames(), 24, 53)
	want := make([]string, len(queries))
	for i, gb := range queries {
		cells, err := mat.answerLeafRescan(gb, 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderCells(cells)
	}
	const G = 8
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(59 + g)))
			for i := 0; i < 60; i++ {
				qi := rng.Intn(len(queries))
				cells, err := mat.Answer(queries[qi], 2)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderCells(cells); got != want[qi] {
					t.Errorf("goroutine %d query %v: %s", g, queries[qi], firstDiffLine(want[qi], got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m := mat.CacheMetrics()
	if m.ResidentBytes > m.BudgetBytes {
		t.Fatalf("budget violated under concurrency: %+v", m)
	}
	if m.Queries != G*60 {
		t.Fatalf("query metric %d, want %d", m.Queries, G*60)
	}
}

// TestServingStatsProgression: cold miss → ancestor serve → cache hit is
// visible through AnswerStats and CacheMetrics.
func TestServingStatsProgression(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{8, 7, 6, 5}, nil, 3000, 61)
	mat, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, s1, err := mat.AnswerStats([]string{"A", "B", "C"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHit || len(s1.ServedFrom) != 4 || s1.CellsScanned != mat.NumCells() {
		t.Fatalf("cold ABC should rescan the 4-dim leaf: %+v", s1)
	}
	_, s2, err := mat.AnswerStats([]string{"A", "B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CacheHit || strings.Join(s2.ServedFrom, ",") != "A,B,C" {
		t.Fatalf("AB should aggregate from the cached ABC: %+v", s2)
	}
	if s2.CellsScanned >= s1.CellsScanned {
		t.Fatalf("ancestor serve scanned %d ≥ leaf scan %d", s2.CellsScanned, s1.CellsScanned)
	}
	_, s3, err := mat.AnswerStats([]string{"A", "B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.CacheHit || s3.CellsScanned != 0 {
		t.Fatalf("repeat AB should hit the cache: %+v", s3)
	}
	m := mat.CacheMetrics()
	if m.LeafAggregations != 1 || m.AncestorAggregations != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics don't reflect the progression: %+v", m)
	}
}

// TestAnswerRejectsDuplicates: duplicate group-by attributes used to be
// silently accepted and produced malformed keys; now they error, on both
// Materialized.Answer and Result.Cuboid.
func TestAnswerRejectsDuplicates(t *testing.T) {
	ds := Synthetic([]string{"A", "B"}, []int{4, 3}, nil, 200, 1)
	mat, err := Materialize(ds, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.Answer([]string{"A", "A"}, 1); err == nil {
		t.Fatal("Materialized.Answer accepted a duplicate attribute")
	}
	if _, err := mat.Answer([]string{"B", "A", "B"}, 1); err == nil {
		t.Fatal("Materialized.Answer accepted a duplicate attribute")
	}
	res, err := Compute(ds, Query{MinSupport: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Cuboid("A", "A"); err == nil {
		t.Fatal("Result.Cuboid accepted a duplicate attribute")
	}
}
