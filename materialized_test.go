package icebergcube

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/exp"
	"icebergcube/internal/results"
)

// TestMaterializedAnswersMatchCompute: every group-by answered from the
// §5.1 leaf precomputation equals the full cube's cuboid — at thresholds
// above, equal to, and below typical precompute floors.
func TestMaterializedAnswersMatchCompute(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{7, 5, 4, 3}, []float64{2, 1, 1.5, 1}, 1500, 13)
	mat, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, minsup := range []int64{1, 2, 6} {
		full, err := Compute(ds, Query{MinSupport: minsup, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, groupBy := range [][]string{
			{"A"}, {"B", "D"}, {"A", "B", "C"}, {"A", "B", "C", "D"},
		} {
			got, err := mat.Answer(groupBy, minsup)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Cuboid(groupBy...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("minsup=%d %v: %d cells from materialization, %d from the cube", minsup, groupBy, len(got), len(want))
			}
			for i := range want {
				if got[i].Count != want[i].Count || got[i].Sum != want[i].Sum {
					t.Fatalf("minsup=%d %v: cell %d differs: %+v vs %+v", minsup, groupBy, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMaterializedIsPrecomputedOnce: answering is served from memory —
// the leaf holds exactly one cell per distinct finest-group tuple.
func TestMaterializedIsPrecomputedOnce(t *testing.T) {
	ds := Synthetic([]string{"A", "B"}, []int{4, 3}, nil, 300, 1)
	mat, err := Materialize(ds, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[[2]uint32]bool)
	for row := 0; row < ds.rel.Len(); row++ {
		distinct[[2]uint32{ds.rel.Value(0, row), ds.rel.Value(1, row)}] = true
	}
	if mat.NumCells() != len(distinct) {
		t.Fatalf("leaf cuboid has %d cells, want %d distinct (A, B) tuples", mat.NumCells(), len(distinct))
	}
}

// TestMaterializeLeafMatchesPrecompute: the radix-built leaf of a
// serving-cube-shaped data set (weather, 6 dims) equals, cell for cell,
// the leaf of the paper's simulated 8-worker precompute decoded from its
// results.Set.
func TestMaterializeLeafMatchesPrecompute(t *testing.T) {
	ds := SyntheticWeather(20000, 2001)
	dims := ds.PickDimsByCardinalityProduct(6, 7)
	mat, err := Materialize(ds, dims, 8)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := ds.resolveDims(dims)
	if err != nil {
		t.Fatal(err)
	}
	set := results.NewSet()
	if _, err := exp.PrecomputeLeaf(core.Run{
		Rel: ds.rel, Dims: idx, Cond: agg.MinSupport(1), Workers: 8, Sink: set, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	got := mat.cube.Current().Srv.Leaf()
	keys, states := set.CuboidColumns(got.Mask)
	if got.Mask.Count() != len(dims) || got.Rows() != len(states) || !slices.Equal(got.Keys, keys) {
		t.Fatalf("leaf has %d cells over mask %b, precompute %d (or keys differ)", got.Rows(), got.Mask, len(states))
	}
	for i, w := range states {
		s := got.States[i]
		if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
			t.Fatalf("cell %d %v: state %+v, want %+v", i, got.Row(i), s, w)
		}
	}
}

// TestMaterializeDoesNotPinDataset: a materialized cube keeps only its own
// dimensions' dictionaries, so the dataset it was built from — every
// column of the raw relation — is collected once the caller drops it,
// and answers still decode to the dataset's strings.
func TestMaterializeDoesNotPinDataset(t *testing.T) {
	freed := make(chan struct{})
	mat := func() *Materialized {
		ds, err := FromRows([]string{"A", "B", "C"},
			[][]string{{"x", "p", "u"}, {"y", "q", "u"}, {"x", "q", "v"}}, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(ds, func(*Dataset) { close(freed) })
		mat, err := Materialize(ds, []string{"A", "B"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}()
	deadline := time.After(10 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("the dataset stays reachable from the materialized cube")
		}
	}
	cells, err := mat.Answer([]string{"A"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Values[0] != "x" || cells[0].Count != 2 || cells[1].Values[0] != "y" {
		t.Fatalf("answer after the dataset was collected: %+v", cells)
	}
}

// TestMaterializedErrors covers unknown dimensions.
func TestMaterializedErrors(t *testing.T) {
	ds := Synthetic([]string{"A", "B"}, []int{4, 3}, nil, 100, 1)
	if _, err := Materialize(ds, []string{"Nope"}, 2); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	mat, err := Materialize(ds, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mat.Answer([]string{"Nope"}, 1); err == nil {
		t.Fatal("unknown group-by attribute accepted")
	}
}
