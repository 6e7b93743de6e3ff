package serve

import (
	"math"
	"slices"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
)

// stateOf aggregates measures into one state.
func stateOf(measures ...float64) agg.State {
	st := agg.NewState()
	for _, m := range measures {
		st.Add(m)
	}
	return st
}

// buildCuboid assembles a sorted cuboid from (key, measures) rows.
func buildCuboid(mask lattice.Mask, width int, keys [][]uint32, states []agg.State) *Cuboid {
	c := &Cuboid{Mask: mask, Width: width}
	for i, k := range keys {
		c.Keys = append(c.Keys, k...)
		c.States = append(c.States, states[i])
	}
	return c
}

// TestFoldDeltaMergeRetractInsertDrop: one fold exercising every branch —
// untouched copy, pure append merge, exact interior retraction, cell
// drop to zero, and new-cell insertion, with the output still sorted.
func TestFoldDeltaMergeRetractInsertDrop(t *testing.T) {
	base := buildCuboid(lattice.MaskOf(0), 1,
		[][]uint32{{0}, {1}, {2}, {4}},
		[]agg.State{stateOf(1, 5), stateOf(2, 4, 6), stateOf(7), stateOf(9)})
	d := &Delta{
		Width: 1,
		Keys:  []uint32{1, 2, 3},
		Add:   []agg.State{stateOf(8), agg.NewState(), stateOf(3)},
		Del:   []agg.State{stateOf(4), stateOf(7), agg.NewState()},
	}
	out, stats, ok := FoldDelta(base, d, nil)
	if !ok {
		t.Fatal("fold with retractable deletions reported dirty")
	}
	wantKeys := []uint32{0, 1, 3, 4}
	if len(out.States) != 4 || !equalU32(out.Keys, wantKeys) {
		t.Fatalf("keys = %v states = %d, want keys %v", out.Keys, len(out.States), wantKeys)
	}
	// Key 1: {2,4,6}+{8}-{4} → count 3, sum 16, min 2, max 8.
	if s := out.States[1]; s.Count != 3 || s.Sum != 16 || s.Min != 2 || s.Max != 8 {
		t.Fatalf("key 1 state %+v", s)
	}
	// Key 3 is the inserted cell.
	if s := out.States[2]; s.Count != 1 || s.Sum != 3 {
		t.Fatalf("inserted cell state %+v", s)
	}
	if stats.Inserted != 1 || stats.Dropped != 1 || stats.Recomputed != 0 {
		t.Fatalf("stats %+v", stats)
	}
	// The base must be untouched (immutability contract).
	if base.States[1].Count != 3 || base.Rows() != 4 {
		t.Fatalf("base mutated: %+v", base.States)
	}
}

// TestFoldDeltaRecompute: deleting a cell's extreme is non-retractable —
// without a recompute callback the fold is dirty; with one, the cell is
// re-derived exactly.
func TestFoldDeltaRecompute(t *testing.T) {
	base := buildCuboid(lattice.MaskOf(0), 1,
		[][]uint32{{5}}, []agg.State{stateOf(1, 3, 9)})
	d := &Delta{Width: 1, Keys: []uint32{5}, Add: []agg.State{agg.NewState()}, Del: []agg.State{stateOf(9)}}
	if out, _, ok := FoldDelta(base, d, nil); ok || out != nil {
		t.Fatal("extreme deletion without recompute must report dirty with a nil cuboid")
	}
	out, stats, ok := FoldDelta(base, d, func(key []uint32) agg.State {
		if key[0] != 5 {
			t.Fatalf("recompute asked for key %v", key)
		}
		return stateOf(1, 3)
	})
	if !ok || stats.Recomputed != 1 {
		t.Fatalf("recompute fold failed: ok=%v stats=%+v", ok, stats)
	}
	if s := out.States[0]; s.Count != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("recomputed state %+v", s)
	}
}

// TestFoldDeltaAllCuboid: width-0 folds maintain the single "all" cell,
// including creating it from empty and dropping it to empty.
func TestFoldDeltaAllCuboid(t *testing.T) {
	empty := &Cuboid{Mask: 0, Width: 0}
	d := &Delta{Width: 0, Keys: nil, Add: []agg.State{stateOf(2, 4)}, Del: []agg.State{agg.NewState()}}
	out, stats, ok := FoldDelta(empty, d, nil)
	if !ok || out.Rows() != 1 || out.States[0].Count != 2 || stats.Inserted != 1 {
		t.Fatalf("all-cell insert: rows=%d stats=%+v", out.Rows(), stats)
	}
	d2 := &Delta{Width: 0, Add: []agg.State{agg.NewState()}, Del: []agg.State{stateOf(2, 4)}}
	out2, stats2, ok := FoldDelta(out, d2, nil)
	if !ok || out2.Rows() != 0 || stats2.Dropped != 1 {
		t.Fatalf("all-cell drop: rows=%d stats=%+v ok=%v", out2.Rows(), stats2, ok)
	}
}

// TestDeltaProject: projection groups adds and deletes independently and
// sorts the result.
func TestDeltaProject(t *testing.T) {
	d := &Delta{
		Width: 2,
		Keys:  []uint32{0, 1, 1, 0, 1, 2},
		Add:   []agg.State{stateOf(1), stateOf(2), stateOf(4)},
		Del:   []agg.State{agg.NewState(), stateOf(5), agg.NewState()},
	}
	p := d.Project([]int{0}, []int{2, 3}, nil)
	if p.Width != 1 || p.Rows() != 2 || !equalU32(p.Keys, []uint32{0, 1}) {
		t.Fatalf("projection %v (%d rows)", p.Keys, p.Rows())
	}
	if p.Add[1].Count != 2 || p.Add[1].Sum != 6 || p.Del[1].Count != 1 || p.Del[1].Sum != 5 {
		t.Fatalf("projected group 1: add %+v del %+v", p.Add[1], p.Del[1])
	}
	all := d.Project(nil, []int{2, 3}, nil)
	if all.Width != 0 || all.Rows() != 1 || all.Add[0].Count != 3 || all.Del[0].Count != 1 {
		t.Fatalf("all projection: %+v", all)
	}
}

// TestFoldDeltaEquivalentToRebuild: folding a random delta into a cuboid
// equals rebuilding the cuboid from the union of surviving states.
func TestFoldDeltaEquivalentToRebuild(t *testing.T) {
	base := buildCuboid(lattice.MaskOf(0, 1), 2,
		[][]uint32{{0, 0}, {0, 2}, {1, 1}},
		[]agg.State{stateOf(1, 2), stateOf(3), stateOf(4, 4)})
	d := &Delta{
		Width: 2,
		Keys:  []uint32{0, 0, 0, 1, 1, 1},
		Add:   []agg.State{stateOf(7), stateOf(5), agg.NewState()},
		Del:   []agg.State{stateOf(2), agg.NewState(), stateOf(4, 4)},
	}
	out, _, ok := FoldDelta(base, d, nil)
	if !ok {
		t.Fatal("dirty")
	}
	want := map[string]agg.State{
		string(encodeKey([]uint32{0, 0})): stateOf(1, 7),
		string(encodeKey([]uint32{0, 1})): stateOf(5),
		string(encodeKey([]uint32{0, 2})): stateOf(3),
	}
	if out.Rows() != len(want) {
		t.Fatalf("%d rows, want %d", out.Rows(), len(want))
	}
	for i := 0; i < out.Rows(); i++ {
		w, ok := want[encodeKey(out.Row(i))]
		if !ok {
			t.Fatalf("unexpected cell %v", out.Row(i))
		}
		s := out.States[i]
		if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
			t.Fatalf("cell %v: %+v want %+v", out.Row(i), s, w)
		}
	}
	// Sorted output.
	for i := 1; i < out.Rows(); i++ {
		if slices.Compare(out.Row(i-1), out.Row(i)) >= 0 {
			t.Fatalf("output unsorted at %d: %v ≥ %v", i, out.Row(i-1), out.Row(i))
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
