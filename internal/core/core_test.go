package core

import (
	"fmt"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/gen"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// testRel builds a small skewed relation for correctness tests.
func testRel(tuples, dims int, seed int64) *relation.Relation {
	cards := make([]int, dims)
	skew := make([]float64, dims)
	for i := range cards {
		cards[i] = 2 + 3*i
		skew[i] = 1 + float64(i%3)
	}
	return gen.Generate(gen.Spec{Cards: cards, Skew: skew, Tuples: tuples, Seed: seed})
}

func allDims(rel *relation.Relation) []int {
	dims := make([]int, rel.NumDims())
	for i := range dims {
		dims[i] = i
	}
	return dims
}

// runAlgo dispatches by name so every algorithm shares the same table tests.
func runAlgo(t *testing.T, name string, run Run) *Report {
	t.Helper()
	var rep *Report
	var err error
	switch name {
	case "RP":
		rep, err = RP(run)
	case "BPP":
		rep, err = BPP(run)
	case "ASL":
		rep, err = ASL(run)
	case "PT":
		rep, err = PT(run)
	case "AHT":
		rep, err = AHT(run)
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

var algoNames = []string{"RP", "BPP", "ASL", "PT", "AHT"}

// TestAlgorithmsMatchNaive verifies every parallel algorithm against the
// brute-force oracle over a grid of shapes, worker counts, and thresholds.
func TestAlgorithmsMatchNaive(t *testing.T) {
	shapes := []struct {
		tuples, dims int
		minsup       int64
		workers      int
	}{
		{200, 3, 1, 1},
		{200, 3, 2, 2},
		{500, 4, 2, 3},
		{500, 4, 5, 4},
		{1000, 5, 2, 4},
		{1000, 5, 3, 8},
		{300, 6, 2, 5},
	}
	for _, sh := range shapes {
		rel := testRel(sh.tuples, sh.dims, int64(sh.tuples+sh.dims))
		dims := allDims(rel)
		want := NaiveCube(rel, dims, agg.MinSupport(sh.minsup))
		for _, name := range algoNames {
			t.Run(fmt.Sprintf("%s/t%d_d%d_s%d_w%d", name, sh.tuples, sh.dims, sh.minsup, sh.workers), func(t *testing.T) {
				got := results.NewSet()
				runAlgo(t, name, Run{
					Rel: rel, Dims: dims,
					Cond:    agg.MinSupport(sh.minsup),
					Workers: sh.workers,
					Sink:    got,
					Seed:    42,
				})
				if diff := want.Diff(got); diff != "" {
					t.Fatalf("%s output differs from naive: %s", name, diff)
				}
			})
		}
	}
}

// TestParallelRunnerMatchesVirtual checks the goroutine runner produces the
// same cells as the deterministic virtual runner. For the static-queue
// algorithms (RP, BPP) rank-level dispatch cannot differ between the two
// runners, so their counter totals must be identical too.
func TestParallelRunnerMatchesVirtual(t *testing.T) {
	rel := testRel(800, 5, 7)
	dims := allDims(rel)
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	for _, name := range algoNames {
		t.Run(name, func(t *testing.T) {
			got := results.NewSet()
			run := Run{
				Rel: rel, Dims: dims,
				Cond:    agg.MinSupport(2),
				Workers: 4,
				Seed:    42,
			}
			prun := run
			prun.Parallel = true
			prun.Sink = got
			rep := runAlgo(t, name, prun)
			if diff := want.Diff(got); diff != "" {
				t.Fatalf("%s (parallel runner) differs from naive: %s", name, diff)
			}
			if name == "RP" || name == "BPP" {
				if ref := runAlgo(t, name, run); rep.Totals() != ref.Totals() {
					t.Fatalf("totals differ from virtual runner:\nparallel %+v\nvirtual  %+v", rep.Totals(), ref.Totals())
				}
			}
		})
	}
}

// TestParallelRunnerStress floods the goroutine-per-worker runner with many
// small tasks on eight real rank goroutines for every algorithm — the -race
// CI leg uses this to hammer the scheduler lock split (sched.Next under
// schedMu only) and concurrent Stage appends.
func TestParallelRunnerStress(t *testing.T) {
	rel := testRel(2000, 6, 19)
	dims := allDims(rel)
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	for _, name := range algoNames {
		t.Run(name, func(t *testing.T) {
			got := results.NewSet()
			runAlgo(t, name, Run{
				Rel: rel, Dims: dims,
				Cond:      agg.MinSupport(2),
				Workers:   8,
				TaskRatio: 8, // many small PT tasks
				Parallel:  true,
				Sink:      got,
				Seed:      42,
			})
			if diff := want.Diff(got); diff != "" {
				t.Fatalf("%s stressed output differs: %s", name, diff)
			}
		})
	}
}

// TestSequentialBUC checks the depth-first BUC kernel directly.
func TestSequentialBUC(t *testing.T) {
	rel := testRel(600, 4, 3)
	dims := allDims(rel)
	for _, minsup := range []int64{1, 2, 4, 16} {
		want := NaiveCube(rel, dims, agg.MinSupport(minsup))
		got := results.NewSet()
		var ctr cost.Counters
		BUC(rel, dims, agg.MinSupport(minsup), disk.NewWriter(&ctr, got), &ctr)
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("BUC minsup=%d differs from naive: %s", minsup, diff)
		}
	}
}

// TestDimensionSubset verifies cubes over a strict subset of the relation's
// dimensions (the common case: 9 of the 20 weather dimensions).
func TestDimensionSubset(t *testing.T) {
	rel := testRel(500, 6, 11)
	dims := []int{1, 3, 4} // non-contiguous subset
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	for _, name := range algoNames {
		got := results.NewSet()
		runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 3, Sink: got, Seed: 1})
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("%s on dim subset differs: %s", name, diff)
		}
	}
}

// TestMinSumCondition exercises a non-count iceberg condition end to end on
// the algorithms that support arbitrary HAVING states (all of them: only
// partition pruning depends on anti-monotonicity, and MinSum declines to
// prune).
func TestMinSumCondition(t *testing.T) {
	rel := testRel(400, 4, 5)
	dims := allDims(rel)
	cond := agg.MinSum(5000)
	want := NaiveCube(rel, dims, cond)
	for _, name := range algoNames {
		got := results.NewSet()
		runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: cond, Workers: 3, Sink: got, Seed: 9})
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("%s with MinSum differs: %s", name, diff)
		}
	}
}

// TestMoreWorkersThanTasks covers RP's idle-processor case (more processors
// than dimensions).
func TestMoreWorkersThanTasks(t *testing.T) {
	rel := testRel(300, 3, 2)
	dims := allDims(rel)
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	got := results.NewSet()
	rep := runAlgo(t, "RP", Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, Sink: got, Seed: 3})
	if diff := want.Diff(got); diff != "" {
		t.Fatalf("RP with idle workers differs: %s", diff)
	}
	busy := 0
	for _, w := range rep.Workers {
		if w.Tasks > 0 {
			busy++
		}
	}
	if busy > len(dims)+1 {
		t.Fatalf("RP used %d workers for %d tasks", busy, len(dims)+1)
	}
}

// TestEmptyAndTinyInputs guards the degenerate paths.
func TestEmptyAndTinyInputs(t *testing.T) {
	rel := relation.New([]string{"A", "B"}, []int{4, 4})
	dims := []int{0, 1}
	for _, name := range algoNames {
		got := results.NewSet()
		runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(1), Workers: 2, Sink: got})
		if got.NumCells() != 0 {
			t.Fatalf("%s produced %d cells from an empty relation", name, got.NumCells())
		}
	}

	rel.Append([]uint32{1, 2}, 10)
	want := NaiveCube(rel, dims, agg.MinSupport(1))
	for _, name := range algoNames {
		got := results.NewSet()
		runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(1), Workers: 2, Sink: got})
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("%s single-tuple cube differs: %s", name, diff)
		}
	}
}

// TestRunValidation exercises Run.normalize errors.
func TestRunValidation(t *testing.T) {
	rel := testRel(10, 3, 1)
	cases := []Run{
		{},
		{Rel: rel},
		{Rel: rel, Dims: []int{0, 0}},
		{Rel: rel, Dims: []int{7}},
		{Rel: rel, Dims: []int{-1}},
	}
	for i, run := range cases {
		if _, err := RP(run); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestDeterminism: two virtual-time runs with the same seed produce
// identical per-worker clocks and counters.
func TestDeterminism(t *testing.T) {
	rel := testRel(700, 5, 13)
	dims := allDims(rel)
	for _, name := range algoNames {
		r1 := runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 4, Seed: 5})
		r2 := runAlgo(t, name, Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 4, Seed: 5})
		if r1.Makespan != r2.Makespan {
			t.Fatalf("%s: makespan not deterministic: %v vs %v", name, r1.Makespan, r2.Makespan)
		}
		for i := range r1.Workers {
			if r1.Workers[i].Ctr != r2.Workers[i].Ctr {
				t.Fatalf("%s: worker %d counters differ across identical runs", name, i)
			}
		}
	}
}
