package exp

// The experiment tests assert the paper's *qualitative* findings — who
// wins, where the crossovers fall — on scaled-down workloads. Absolute
// numbers are not compared (our substrate is a simulator, the paper's was
// a 2001 PC cluster); EXPERIMENTS.md records the full-scale series.

import (
	"math"
	"testing"
)

func scaled(tuples int) Config { return Config{Tuples: tuples} }

// skipHeavy skips the full figure-replay sweeps in -short mode and under
// the race detector (where they exceed the package test timeout; the
// algorithms' race coverage lives in core/cluster/mpi/oracle).
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness: long")
	}
	if raceEnabled {
		t.Skip("experiment harness: too slow under -race; algorithms are race-tested in core/cluster/mpi/oracle")
	}
}

func seriesByName(t *testing.T, tbl *Table, name string) Series {
	t.Helper()
	for _, s := range tbl.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no series %q", tbl.ID, name)
	return Series{}
}

func yAt(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %s: no point at x=%v", s.Name, x)
	return 0
}

// TestFig3_6_BreadthFirstWritingWins: RP's depth-first writing must cost
// several times BPP's breadth-first writing in write I/O at every cluster
// size (the paper reports >5× on the baseline).
func TestFig3_6_BreadthFirstWritingWins(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig3_6(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	rp, bpp := seriesByName(t, tbl, "RP"), seriesByName(t, tbl, "BPP")
	for i := range rp.Points {
		if rp.Points[i].Y < 3*bpp.Points[i].Y {
			t.Errorf("n=%v: RP write I/O %.3fs not ≥3× BPP's %.3fs",
				rp.Points[i].X, rp.Points[i].Y, bpp.Points[i].Y)
		}
	}
}

func loadImbalance(s Series) float64 {
	min, max := math.Inf(1), 0.0
	for _, p := range s.Points {
		if p.Y < min {
			min = p.Y
		}
		if p.Y > max {
			max = p.Y
		}
	}
	if min == 0 {
		return math.Inf(1)
	}
	return max / min
}

// TestFig4_1_LoadBalance: the dynamically scheduled fine-grained algorithms
// (ASL, PT, AHT) must balance load tightly; statically assigned RP and BPP
// must not.
func TestFig4_1_LoadBalance(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_1(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	for _, name := range []string{"ASL", "PT", "AHT"} {
		if r := loadImbalance(seriesByName(t, tbl, name)); r > 1.35 {
			t.Errorf("%s load max/min = %.2f, want tight balance", name, r)
		}
	}
	for _, name := range []string{"RP", "BPP"} {
		if r := loadImbalance(seriesByName(t, tbl, name)); r < 2 {
			t.Errorf("%s load max/min = %.2f, expected visible imbalance", name, r)
		}
	}
}

// TestFig4_2_Scalability asserts the paper's processor-sweep findings:
// PT is the best overall; RP is the worst at scale and stops speeding up
// beyond one task per dimension; ASL starts poorly (skip-list overhead on
// few processors) but scales well; every dynamic algorithm's makespan is
// monotone non-increasing in processors.
func TestFig4_2_Scalability(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_2(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	pt, rp, asl, aht, bpp := seriesByName(t, tbl, "PT"), seriesByName(t, tbl, "RP"),
		seriesByName(t, tbl, "ASL"), seriesByName(t, tbl, "AHT"), seriesByName(t, tbl, "BPP")

	for _, n := range []float64{2, 4, 8, 16} {
		for _, other := range []Series{rp, asl, aht, bpp} {
			if yAt(t, pt, n) >= yAt(t, other, n) {
				t.Errorf("n=%v: PT (%.2fs) should beat %s (%.2fs)", n, yAt(t, pt, n), other.Name, yAt(t, other, n))
			}
		}
	}
	if yAt(t, asl, 1) <= yAt(t, rp, 1) {
		t.Errorf("ASL on 1 processor (%.2fs) should show skip-list overhead vs RP (%.2fs)", yAt(t, asl, 1), yAt(t, rp, 1))
	}
	// RP stalls: negligible gain from 8 to 16 processors.
	if gain := yAt(t, rp, 8) / yAt(t, rp, 16); gain > 1.1 {
		t.Errorf("RP speedup 8→16 = %.2f×, should be negligible (static tasks ≤ dims)", gain)
	}
	// ASL scales well: ≥4× speedup from 1 to 16.
	if sp := yAt(t, asl, 1) / yAt(t, asl, 16); sp < 4 {
		t.Errorf("ASL speedup 1→16 = %.1f×, want ≥4×", sp)
	}
	for _, s := range []Series{pt, asl, aht} {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y*1.02 {
				t.Errorf("%s makespan increased with processors: %v", s.Name, s.Points)
			}
		}
	}
}

// TestFig4_5_MinSup: pruning and shrinking output make everything cheaper
// as the threshold rises; the 1→2 step is the cliff; output volume falls
// monotonically.
func TestFig4_5_MinSup(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_5(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	out := seriesByName(t, tbl, "outMB")
	for i := 1; i < len(out.Points); i++ {
		if out.Points[i].Y >= out.Points[i-1].Y {
			t.Errorf("output volume must shrink with minsup: %v", out.Points)
		}
	}
	if ratio := out.Points[0].Y / out.Points[1].Y; ratio < 3 {
		t.Errorf("minsup 1→2 output drop %.1f×, want the paper's cliff (469→86MB ≈ 5.5×)", ratio)
	}
	for _, name := range CubeAlgorithms {
		s := seriesByName(t, tbl, name)
		if yAt(t, s, 1) <= yAt(t, s, 2) {
			t.Errorf("%s: minsup 1 (%.2fs) must cost more than minsup 2 (%.2fs)", name, yAt(t, s, 1), yAt(t, s, 2))
		}
	}
	// The BUC-based algorithms keep benefiting from pruning past 2; the
	// non-pruning ASL/AHT benefit only via I/O, so their curves flatten.
	rp := seriesByName(t, tbl, "RP")
	if yAt(t, rp, 2) <= yAt(t, rp, 8) {
		t.Errorf("RP should keep improving with support: %v", rp.Points)
	}
	asl := seriesByName(t, tbl, "ASL")
	if flat := yAt(t, asl, 2) / yAt(t, asl, 16); flat > 1.5 {
		t.Errorf("ASL cannot prune; its 2→16 improvement %.2f× should be modest", flat)
	}
}

// TestFig4_6_Sparseness: hash/skip-list algorithms win dense cubes; the
// BUC-based algorithms win sparse cubes (pruning bites); AHT degrades with
// sparseness.
func TestFig4_6_Sparseness(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_6(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	pt := seriesByName(t, tbl, "PT")
	aht := seriesByName(t, tbl, "AHT")
	asl := seriesByName(t, tbl, "ASL")
	rp := seriesByName(t, tbl, "RP")
	if yAt(t, aht, 7) >= yAt(t, pt, 7) {
		t.Errorf("dense cube: AHT (%.2fs) should beat PT (%.2fs)", yAt(t, aht, 7), yAt(t, pt, 7))
	}
	if yAt(t, aht, 21) <= yAt(t, pt, 21) {
		t.Errorf("sparse cube: AHT (%.2fs) should lose to PT (%.2fs)", yAt(t, aht, 21), yAt(t, pt, 21))
	}
	// BUC-based algorithms gain from sparseness (more pruning), dense
	// hurts them.
	for _, s := range []Series{rp, pt} {
		if yAt(t, s, 21) >= yAt(t, s, 7) {
			t.Errorf("%s should run faster on the sparse cube than the dense one: %v", s.Name, s.Points)
		}
	}
	// ASL holds up on dense data better than the BUC-based RP.
	if yAt(t, asl, 7) >= yAt(t, rp, 7) {
		t.Errorf("dense cube: ASL (%.2fs) should beat RP (%.2fs)", yAt(t, asl, 7), yAt(t, rp, 7))
	}
}

// TestFig4_3_ProblemSize: every algorithm's cost grows with the data set;
// PT stays the fastest at every size (the paper's headline for this
// figure), and PT's growth is at worst modestly superlinear.
func TestFig4_3_ProblemSize(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_3(scaled(6000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	pt := seriesByName(t, tbl, "PT")
	for _, name := range CubeAlgorithms {
		s := seriesByName(t, tbl, name)
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y <= s.Points[i-1].Y {
				t.Errorf("%s: cost must grow with tuples: %v", name, s.Points)
			}
		}
		if name != "PT" {
			last := len(s.Points) - 1
			if pt.Points[last].Y >= s.Points[last].Y {
				t.Errorf("PT (%.2fs) should beat %s (%.2fs) at the largest size", pt.Points[last].Y, name, s.Points[last].Y)
			}
		}
	}
	growth := pt.Points[len(pt.Points)-1].Y / pt.Points[0].Y
	sizeGrowth := pt.Points[len(pt.Points)-1].X / pt.Points[0].X
	if growth > 2*sizeGrowth {
		t.Errorf("PT grew %.1f× on a %.1f× size increase — far from the paper's near-linear scaling", growth, sizeGrowth)
	}
}

// TestFig4_4_Dimensions: cost explodes with dimensionality for everyone;
// ASL's long-key comparisons drop it behind BPP by 13 dimensions; AHT
// degrades badly too (even with its 10× table).
func TestFig4_4_Dimensions(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig4_4(scaled(10000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	for _, name := range CubeAlgorithms {
		s := seriesByName(t, tbl, name)
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y <= s.Points[i-1].Y {
				t.Errorf("%s: cost must grow with dimensions: %v", name, s.Points)
			}
		}
		if growth := yAt(t, s, 13) / yAt(t, s, 9); growth < 3 {
			t.Errorf("%s: 9→13 dims growth %.1f× too small (cuboid count grows 16×)", name, growth)
		}
	}
	asl, bpp := seriesByName(t, tbl, "ASL"), seriesByName(t, tbl, "BPP")
	if yAt(t, asl, 13) <= yAt(t, bpp, 13) {
		t.Errorf("at 13 dims ASL (%.2fs) should fall behind BPP (%.2fs)", yAt(t, asl, 13), yAt(t, bpp, 13))
	}
	pt, aht := seriesByName(t, tbl, "PT"), seriesByName(t, tbl, "AHT")
	if yAt(t, aht, 13) < 2*yAt(t, pt, 13) {
		t.Errorf("at 13 dims AHT (%.2fs) should degrade well past PT (%.2fs)", yAt(t, aht, 13), yAt(t, pt, 13))
	}
}

// TestSec5_1_SelectiveMaterialization: precomputing only the finest cuboid
// at minsup 1 must be cheaper than recomputing the full iceberg cube.
func TestSec5_1_SelectiveMaterialization(t *testing.T) {
	skipHeavy(t)
	tbl, err := Sec5_1(scaled(20000))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	s := tbl.Series[0]
	full, leaf := s.Points[0].Y, s.Points[1].Y
	if leaf >= full {
		t.Errorf("leaves-only precompute (%.2fs) should beat full recompute (%.2fs)", leaf, full)
	}
}

// TestFig5_3_POLScalability: POL speeds up with processors on every
// cluster, and the faster interconnect is never slower.
func TestFig5_3_POLScalability(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig5_3(Config{Tuples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	for _, s := range tbl.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Errorf("%s: POL must speed up with processors: %v", s.Name, s.Points)
			}
		}
	}
	eth := seriesByName(t, tbl, "Cluster2 PII266/Eth")
	myri := seriesByName(t, tbl, "Cluster3 PII266/Myri")
	for _, n := range []float64{2, 4, 8} {
		if yAt(t, myri, n) > yAt(t, eth, n) {
			t.Errorf("n=%v: Myrinet (%.3fs) slower than Ethernet (%.3fs)", n, yAt(t, myri, n), yAt(t, eth, n))
		}
	}
}

// TestFig5_4_BufferSize: bigger buffers mean fewer synchronizations and
// result collections, hence monotone improvement.
func TestFig5_4_BufferSize(t *testing.T) {
	skipHeavy(t)
	tbl, err := Fig5_4(Config{Tuples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tbl)
	s := tbl.Series[0]
	if s.Points[0].Y <= s.Points[len(s.Points)-1].Y {
		t.Errorf("POL with the smallest buffer (%.3fs) should be slower than with the largest (%.3fs)",
			s.Points[0].Y, s.Points[len(s.Points)-1].Y)
	}
}

// TestTable1_1 sanity-checks the features table renders.
func TestTable1_1(t *testing.T) {
	tbl := Table1_1()
	if len(tbl.Notes) != 4 {
		t.Fatalf("Table 1.1 must list the four main algorithms, got %d rows", len(tbl.Notes))
	}
}

// TestTableFormat covers the renderer.
func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T", XLabel: "n", YLabel: "s",
		Series: []Series{{Name: "A", Points: []Point{{1, 2}, {2, 3}}}, {Name: "B", Points: []Point{{1, 5}}}},
		Notes:  []string{"note"},
	}
	got := tbl.Format()
	for _, want := range []string{"x — T", "A", "B", "note"} {
		if !contains(got, want) {
			t.Errorf("Format() missing %q in:\n%s", want, got)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
