package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// TestRunSubtreeChopped runs the BPP-BUC kernel directly on chopped
// subtrees (PT's task shape) and checks each produces exactly its member
// cuboids, matching the oracle.
func TestRunSubtreeChopped(t *testing.T) {
	rel := testRel(700, 4, 3)
	dims := allDims(rel)
	cond := agg.MinSupport(2)
	want := NaiveCube(rel, dims, cond)

	for _, minTasks := range []int{2, 4, 8, 15} {
		tasks := lattice.BinaryDivision(len(dims), minTasks)
		got := results.NewSet()
		var ctr cost.Counters
		out := disk.NewWriter(&ctr, got)
		for _, task := range tasks {
			view := rel.Identity()
			SortForRoot(rel, view, dims, nil, task.Root, &ctr)
			RunSubtree(rel, view, dims, task, cond, out, &ctr)
		}
		// Add the "all" cell the task decomposition excludes.
		writeAll(rel, rel.Identity(), cond, out, &ctr)
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("minTasks=%d: chopped-subtree union differs: %s", minTasks, diff)
		}
	}
}

// TestSortForRootSharing: sorting with a shared prefix must yield exactly
// the order a from-scratch sort yields.
func TestSortForRootSharing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := testRel(400, 5, seed)
		dims := allDims(rel)
		var ctr cost.Counters

		// Random previous root and next root sharing a random prefix.
		prev := lattice.MaskOf(0, 1, 2)
		next := []lattice.Mask{
			lattice.MaskOf(0, 1, 3),
			lattice.MaskOf(0, 4),
			lattice.MaskOf(2, 3),
			lattice.MaskOf(0, 1, 2, 4),
		}[rng.Intn(4)]

		shared := rel.Identity()
		order := SortForRoot(rel, shared, dims, nil, prev, &ctr)
		order = SortForRoot(rel, shared, dims, order, next, &ctr)

		fresh := rel.Identity()
		SortForRoot(rel, fresh, dims, nil, next, &ctr)

		nextDims := make([]int, 0, 4)
		for _, p := range next.Dims() {
			nextDims = append(nextDims, dims[p])
		}
		for i := range shared {
			if rel.CompareRows(shared[i], fresh[i], nextDims, relation.NopCounter()) != 0 {
				return false
			}
		}
		return len(order) == len(nextDims)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBPPChunkDisjointness: every output cell of a subtree task contains
// the partitioning attribute, so partial cuboids from different chunks can
// never overlap — merging is pure union. Verified by checking that no cell
// is written twice with the same (cuboid, key) by different chunk tasks
// before sink-side merging.
func TestBPPChunkDisjointness(t *testing.T) {
	rel := testRel(600, 4, 9)
	dims := allDims(rel)
	cond := agg.MinSupport(1) // keep everything: strictest disjointness test
	n := 3

	for i := range dims {
		sub := lattice.FullSubtree(lattice.MaskOf(i), len(dims))
		seen := make(map[string]int)
		for _, chunk := range rel.RangePartition(dims[i], n) {
			if len(chunk) == 0 {
				continue
			}
			part := results.NewSet()
			var ctr cost.Counters
			out := disk.NewWriter(&ctr, part)
			view := append([]int32(nil), chunk...)
			rel.SortView(view, []int{dims[i]}, &ctr)
			RunSubtree(rel, view, dims, sub, cond, out, &ctr)
			for _, m := range part.Masks() {
				if !m.Has(i) {
					t.Fatalf("subtree T_%d emitted cuboid %b without its root attribute", i, m)
				}
				keys, _ := part.CuboidColumns(m)
				for c := 0; c < len(keys); c += m.Count() {
					id := fmt.Sprint(m, keys[c:c+m.Count()])
					seen[id]++
					if seen[id] > 1 {
						t.Fatalf("cell emitted by two chunks of attribute %d", i)
					}
				}
			}
		}
	}
}

// TestAHTWithTinyBits: pathological index widths (massive collisions) must
// still be correct.
func TestAHTWithTinyBits(t *testing.T) {
	rel := testRel(400, 4, 21)
	dims := allDims(rel)
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	got := results.NewSet()
	if _, err := AHTWithBits(Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 2, Sink: got, Seed: 1}, 4); err != nil {
		t.Fatal(err)
	}
	if diff := want.Diff(got); diff != "" {
		t.Fatalf("4-bit AHT differs from naive: %s", diff)
	}
}

// TestPTTaskRatioCorrectness: every granularity produces the same cube.
func TestPTTaskRatioCorrectness(t *testing.T) {
	rel := testRel(500, 5, 2)
	dims := allDims(rel)
	want := NaiveCube(rel, dims, agg.MinSupport(2))
	for _, ratio := range []int{1, 2, 8, 64} {
		got := results.NewSet()
		if _, err := PT(Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 3, TaskRatio: ratio, Sink: got, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("PT ratio %d differs: %s", ratio, diff)
		}
	}
}

// TestWriteAllRespectsCondition: the "all" cell obeys HAVING too.
func TestWriteAllRespectsCondition(t *testing.T) {
	rel := testRel(5, 3, 1)
	got := results.NewSet()
	var ctr cost.Counters
	writeAll(rel, rel.Identity(), agg.MinSupport(10), disk.NewWriter(&ctr, got), &ctr)
	if got.NumCells() != 0 {
		t.Fatal("all cell written below threshold")
	}
	writeAll(rel, rel.Identity(), agg.MinSupport(5), disk.NewWriter(&ctr, got), &ctr)
	if got.NumCells() != 1 {
		t.Fatal("all cell missing at threshold")
	}
}

// TestBUCWritesDepthFirst: the original BUC kernel must produce near one
// seek per cell (the scattered writing RP inherits), while the same cube
// breadth-first keeps seeks near the cuboid count.
func TestBUCWritesDepthFirst(t *testing.T) {
	rel := testRel(800, 4, 7)
	dims := allDims(rel)
	cond := agg.MinSupport(2)

	var df cost.Counters
	BUC(rel, dims, cond, disk.NewWriter(&df, nil), &df)

	var bf cost.Counters
	out := disk.NewWriter(&bf, nil)
	for p := range dims {
		sub := lattice.FullSubtree(lattice.MaskOf(p), len(dims))
		view := rel.Identity()
		rel.SortView(view, []int{dims[p]}, &bf)
		RunSubtree(rel, view, dims, sub, cond, out, &bf)
	}
	if df.CellsWritten == 0 || df.CellsWritten != bf.CellsWritten+1 { // +1: BUC wrote "all"
		t.Fatalf("cell counts: depth %d breadth %d", df.CellsWritten, bf.CellsWritten)
	}
	if df.Seeks < 5*bf.Seeks {
		t.Fatalf("depth-first seeks (%d) should dwarf breadth-first's (%d)", df.Seeks, bf.Seeks)
	}
	if bf.Seeks > int64(lattice.NumCuboids(len(dims)))*4 {
		t.Fatalf("breadth-first seeks %d too high for %d cuboids", bf.Seeks, lattice.NumCuboids(len(dims)))
	}
}
