package icebergcube

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// salesDataset builds the SALES relation of Gray et al. used in the
// paper's Fig 2.2 — the canonical CUBE example with known aggregates.
func salesDataset(t *testing.T) *Dataset {
	t.Helper()
	rows := [][]string{
		{"Chevy", "1990", "red"}, {"Chevy", "1990", "white"}, {"Chevy", "1990", "blue"},
		{"Chevy", "1991", "red"}, {"Chevy", "1991", "white"}, {"Chevy", "1991", "blue"},
		{"Chevy", "1992", "red"}, {"Chevy", "1992", "white"}, {"Chevy", "1992", "blue"},
		{"Ford", "1990", "red"}, {"Ford", "1990", "white"}, {"Ford", "1990", "blue"},
		{"Ford", "1991", "red"}, {"Ford", "1991", "white"}, {"Ford", "1991", "blue"},
		{"Ford", "1992", "red"}, {"Ford", "1992", "white"}, {"Ford", "1992", "blue"},
	}
	sales := []float64{5, 87, 62, 54, 95, 49, 31, 54, 71, 64, 62, 63, 52, 9, 55, 27, 62, 39}
	ds, err := FromRows([]string{"Model", "Year", "Color"}, rows, sales)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSalesCubeFig2_2 checks the CUBE of the SALES relation (the paper's
// Fig 2.2 example) for every algorithm. Expected sums are derived from the
// row data with an independent in-test aggregation (the figure's printed
// aggregate column is not self-consistent with its printed rows in the
// available scan), plus the hand-checked Chevy/1990 = 154 spot value the
// figure and rows agree on.
func TestSalesCubeFig2_2(t *testing.T) {
	ds := salesDataset(t)
	rows := [][]string{}
	sums := []float64{}
	// Re-read the data set (decoding path) to build the oracle input.
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, "Sales"); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if i == 0 {
			continue
		}
		f := strings.Split(line, ",")
		rows = append(rows, f[:3])
		var m float64
		if _, err := fmtSscan(f[3], &m); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, m)
	}
	oracle := func(groupBy []int, values []string) float64 {
		total := 0.0
		for i, r := range rows {
			match := true
			for j, g := range groupBy {
				if r[g] != values[j] {
					match = false
					break
				}
			}
			if match {
				total += sums[i]
			}
		}
		return total
	}
	checks := []struct {
		groupBy []string
		gbIdx   []int
		values  []string
	}{
		{nil, nil, nil},
		{[]string{"Model"}, []int{0}, []string{"Chevy"}},
		{[]string{"Model"}, []int{0}, []string{"Ford"}},
		{[]string{"Year"}, []int{1}, []string{"1990"}},
		{[]string{"Year"}, []int{1}, []string{"1992"}},
		{[]string{"Color"}, []int{2}, []string{"red"}},
		{[]string{"Color"}, []int{2}, []string{"blue"}},
		{[]string{"Model", "Year"}, []int{0, 1}, []string{"Chevy", "1990"}},
		{[]string{"Model", "Color"}, []int{0, 2}, []string{"Ford", "white"}},
		{[]string{"Year", "Color"}, []int{1, 2}, []string{"1991", "blue"}},
		{[]string{"Model", "Year", "Color"}, []int{0, 1, 2}, []string{"Chevy", "1992", "white"}},
	}
	for _, alg := range Algorithms() {
		res, err := Compute(ds, Query{Algorithm: alg, Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.NumCuboids() != 8 {
			t.Fatalf("%s: %d non-empty cuboids, want 2^3 = 8", alg, res.NumCuboids())
		}
		for _, w := range checks {
			cell, ok, err := res.Get(w.groupBy, w.values)
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if !ok {
				t.Fatalf("%s: missing cell %v=%v", alg, w.groupBy, w.values)
			}
			if want := oracle(w.gbIdx, w.values); cell.Sum != want {
				t.Errorf("%s: SUM(%v=%v) = %g, want %g", alg, w.groupBy, w.values, cell.Sum, want)
			}
		}
		// The figure's hand-checked spot value.
		cell, ok, _ := res.Get([]string{"Model", "Year"}, []string{"Chevy", "1990"})
		if !ok || cell.Sum != 154 {
			t.Errorf("%s: SUM(Chevy,1990) = %v, want the figure's 154", alg, cell.Sum)
		}
	}
}

// fmtSscan wraps fmt.Sscan for the oracle reader.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestIcebergThreshold checks the HAVING filter: with minsup 2, all
// 3-attribute cells (support 1 each) disappear.
func TestIcebergThreshold(t *testing.T) {
	ds := salesDataset(t)
	res, err := Compute(ds, Query{MinSupport: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := res.Cuboid("Model", "Year", "Color")
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != 0 {
		t.Fatalf("minsup 2 should prune all support-1 cells, got %d", len(fine))
	}
	models, err := res.Cuboid("Model")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("Model cuboid should keep 2 cells, got %d", len(models))
	}
}

// TestMinSumQuery exercises the SUM-threshold condition through the facade.
func TestMinSumQuery(t *testing.T) {
	ds := salesDataset(t)
	res, err := Compute(ds, Query{MinSum: 350, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	colors, err := res.Cuboid("Color")
	if err != nil {
		t.Fatal(err)
	}
	if len(colors) != 1 || colors[0].Values[0] != "white" {
		t.Fatalf("MinSum 350 over Color should keep only white (369), got %v", colors)
	}
}

// TestCSVRoundTrip: write a data set to CSV, reload it, recompute, same
// answer.
func TestCSVRoundTrip(t *testing.T) {
	ds := salesDataset(t)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, "Sales"); err != nil {
		t.Fatal(err)
	}
	ds2, err := LoadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Compute(ds, Query{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compute(ds2, Query{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumCells() != r2.NumCells() {
		t.Fatalf("round trip changed cell count: %d vs %d", r1.NumCells(), r2.NumCells())
	}
	c1, _, _ := r1.Get([]string{"Model"}, []string{"Chevy"})
	c2, _, _ := r2.Get([]string{"Model"}, []string{"Chevy"})
	if c1.Sum != c2.Sum {
		t.Fatalf("round trip changed a cell: %v vs %v", c1, c2)
	}
}

// TestAlgorithmsAgree: all five algorithms produce identical cell sets on a
// synthetic workload, through the public API.
func TestAlgorithmsAgree(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{8, 5, 9, 3}, []float64{2, 1, 1.5, 1}, 700, 11)
	var ref *Result
	for _, alg := range Algorithms() {
		res, err := Compute(ds, Query{Algorithm: alg, MinSupport: 2, Workers: 4, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.NumCells() != ref.NumCells() {
			t.Fatalf("%s: %d cells, %s had %d", alg, res.NumCells(), ref.Algorithm, ref.NumCells())
		}
	}
}

// TestComputeOnlineFacade: POL through the public API matches the batch
// cube's corresponding cuboid and reports refinement progress.
func TestComputeOnlineFacade(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C"}, []int{20, 10, 6}, nil, 5000, 3)
	var progress []OnlineProgress
	res, err := ComputeOnline(ds, OnlineQuery{
		Dims:         []string{"A", "B"},
		MinSupport:   5,
		Workers:      4,
		BufferTuples: 400,
		OnProgress:   func(p OnlineProgress) { progress = append(progress, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Compute(ds, Query{Dims: []string{"A", "B", "C"}, MinSupport: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Cuboid("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(want) {
		t.Fatalf("online answer has %d cells, batch cube has %d", len(res.Cells), len(want))
	}
	if len(progress) < 2 {
		t.Fatalf("expected multiple refinement snapshots, got %d", len(progress))
	}
	if progress[len(progress)-1].Fraction != 1 {
		t.Fatalf("final snapshot fraction = %v", progress[len(progress)-1].Fraction)
	}
}

// TestComputeOnlineCellOrder: the online answer lists its cells in the
// same order as Result.Cuboid — ascending code tuples — also for codes of
// 256 and above, which a byte-wise order of little-endian keys puts
// before the small ones.
func TestComputeOnlineCellOrder(t *testing.T) {
	ds := SyntheticWeather(20000, 2001)
	res, err := ComputeOnline(ds, OnlineQuery{Dims: []string{"station"}, MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Compute(ds, Query{Dims: []string{"station"}, MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Cuboid("station")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 256 {
		t.Fatalf("only %d stations: no code reaches 256", len(want))
	}
	if len(res.Cells) != len(want) {
		t.Fatalf("online answer has %d cells, batch cube has %d", len(res.Cells), len(want))
	}
	for i, c := range res.Cells {
		if c.Values[0] != want[i].Values[0] || c.Count != want[i].Count {
			t.Fatalf("cell %d: online %v, batch %v", i, c, want[i])
		}
	}
}

// TestRecipe encodes Fig 4.7's rows.
func TestRecipe(t *testing.T) {
	cases := []struct {
		name   string
		p      Profile
		want   Algorithm
		online bool
	}{
		{"default", Profile{Tuples: 200000, Dims: 9, CardinalityProduct: 1e13}, PT, false},
		{"dense", Profile{Tuples: 200000, Dims: 9, CardinalityProduct: 1e7}, AHT, false},
		{"small dims", Profile{Tuples: 200000, Dims: 4, CardinalityProduct: 1e10}, RP, false},
		{"high dims", Profile{Tuples: 200000, Dims: 13, CardinalityProduct: 1e20}, PT, false},
		{"low memory", Profile{Tuples: 200000, Dims: 9, CardinalityProduct: 1e13, MemoryConstrained: true}, BPP, false},
		{"online", Profile{Tuples: 1000000, Dims: 12, OnlineRefinement: true}, ASL, true},
	}
	for _, c := range cases {
		rec := Recommend(c.p)
		if rec.Algorithm != c.want || rec.Online != c.online {
			t.Errorf("%s: Recommend(%+v) = %v/online=%v, want %v/online=%v",
				c.name, c.p, rec.Algorithm, rec.Online, c.want, c.online)
		}
		if rec.Reason == "" {
			t.Errorf("%s: recommendation must explain itself", c.name)
		}
	}
}

// TestProfileOf derives profiles from data sets.
func TestProfileOf(t *testing.T) {
	ds := SyntheticWeather(5000, 1)
	dims := ds.PickDimsByCardinalityProduct(9, 13)
	if len(dims) != 9 {
		t.Fatalf("picked %d dims", len(dims))
	}
	p, err := ProfileOf(ds, dims)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims != 9 || p.Tuples != 5000 {
		t.Fatalf("profile %+v", p)
	}
	if p.Dense() {
		t.Fatalf("a 10^13-cell cube must not classify as dense: %+v", p)
	}
	if _, err := ProfileOf(ds, []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown dimension")
	}
}

// TestFacadeErrors covers the error paths users hit first.
func TestFacadeErrors(t *testing.T) {
	ds := salesDataset(t)
	if _, err := Compute(ds, Query{Dims: []string{"Nope"}}); err == nil {
		t.Error("unknown dimension should fail")
	}
	if _, err := Compute(ds, Query{Algorithm: "XXX"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := ComputeOnline(ds, OnlineQuery{}); err == nil {
		t.Error("online query without dims should fail")
	}
	if _, err := LoadCSV(strings.NewReader("just_one_column\nx\n")); err == nil {
		t.Error("CSV without a measure column should fail")
	}
	if _, err := LoadCSV(strings.NewReader("a,m\nx,notanumber\n")); err == nil {
		t.Error("CSV with a bad measure should fail")
	}
	res, err := Compute(ds, Query{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Cuboid("Nope"); err == nil {
		t.Error("unknown cuboid attribute should fail")
	}
	if _, _, err := res.Get([]string{"Model"}, []string{"a", "b"}); err == nil {
		t.Error("mismatched values length should fail")
	}
}

// TestCellString covers the formatter.
func TestCellString(t *testing.T) {
	c := Cell{Attrs: []string{"Model"}, Values: []string{"Chevy"}, Count: 9, Sum: 510}
	if got := c.String(); got != "(Model=Chevy): count=9 sum=510" {
		t.Errorf("Cell.String() = %q", got)
	}
	all := Cell{Count: 18, Sum: 942}
	if got := all.String(); got != "(ALL): count=18 sum=942" {
		t.Errorf("all-cell String() = %q", got)
	}
}

// TestParallelFacade runs the goroutine runner through the public API.
func TestParallelFacade(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C"}, []int{10, 8, 6}, nil, 2000, 5)
	virt, err := Compute(ds, Query{MinSupport: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compute(ds, Query{MinSupport: 2, Workers: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if virt.NumCells() != par.NumCells() {
		t.Fatalf("parallel runner changed the answer: %d vs %d cells", par.NumCells(), virt.NumCells())
	}
}
