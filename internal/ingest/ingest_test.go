package ingest

import (
	"math"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
	"icebergcube/internal/serve"
)

// keyString is the string form of appendKeyBytes, a comparable map key.
func keyString(key []uint32) string {
	buf := make([]byte, 0, 4*len(key))
	return string(appendKeyBytes(buf, key))
}

// buildCube materializes a cube directly from rows (the test-local stand-
// in for the §5.1 precomputation): leaf = exact aggregation of the rows.
func buildCube(width int, keys []uint32, meas []float64, cards []int, budget int64) *Cube {
	set := results.NewSet()
	var mask lattice.Mask
	for p := 0; p < width; p++ {
		mask |= 1 << uint(p)
	}
	for i := range meas {
		st := agg.NewState()
		st.Add(meas[i])
		set.WriteCell(mask, keys[i*width:(i+1)*width], st)
	}
	k, s := set.CuboidColumns(mask)
	leaf := &serve.Cuboid{Mask: mask, Width: width, Keys: k, States: s}
	return New(leaf, keys, meas, cards, budget)
}

// referenceLeaf aggregates rows the trivial way.
func referenceLeaf(width int, keys []uint32, meas []float64) map[string]agg.State {
	out := make(map[string]agg.State)
	for i := range meas {
		k := keyString(keys[i*width : (i+1)*width])
		st, ok := out[k]
		if !ok {
			st = agg.NewState()
		}
		st.Add(meas[i])
		out[k] = st
	}
	return out
}

// checkLeaf compares a view's leaf against a reference row multiset.
func checkLeaf(t *testing.T, v *View, width int, keys []uint32, meas []float64) {
	t.Helper()
	want := referenceLeaf(width, keys, meas)
	leaf := v.Srv.Leaf()
	if leaf.Rows() != len(want) {
		t.Fatalf("v%d: %d leaf cells, want %d", v.Version, leaf.Rows(), len(want))
	}
	for i := 0; i < leaf.Rows(); i++ {
		w, ok := want[keyString(leaf.Row(i))]
		if !ok {
			t.Fatalf("v%d: unexpected leaf cell %v", v.Version, leaf.Row(i))
		}
		s := leaf.States[i]
		if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
			t.Fatalf("v%d cell %v: %+v want %+v", v.Version, leaf.Row(i), s, w)
		}
	}
}

func TestCommitMaintainsLeafAcrossVersions(t *testing.T) {
	baseKeys := []uint32{0, 0, 0, 1, 1, 0, 1, 1}
	baseMeas := []float64{2, 4, 6, 8}
	c := buildCube(2, baseKeys, baseMeas, []int{3, 3}, 0)
	checkLeaf(t, c.Current(), 2, baseKeys, baseMeas)

	// v2: append two rows, one into an existing cell, one new.
	if err := c.Append([]uint32{0, 0, 2, 2}, []float64{10, 5}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.Rows != 6 || snap.Appended != 2 || snap.Deleted != 0 {
		t.Fatalf("v2 snapshot %+v", snap)
	}
	keys2 := append(append([]uint32(nil), baseKeys...), 0, 0, 2, 2)
	meas2 := append(append([]float64(nil), baseMeas...), 10, 5)
	checkLeaf(t, c.Current(), 2, keys2, meas2)

	// v3: delete an interior row (retractable) and an extreme (recompute).
	if err := c.Delete([]uint32{0, 0, 1, 1}, []float64{2, 8}); err != nil {
		t.Fatal(err)
	}
	snap, err = c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || snap.Rows != 4 || snap.Deleted != 2 {
		t.Fatalf("v3 snapshot %+v", snap)
	}
	if snap.Recomputed == 0 {
		t.Fatalf("deleting cell extremes should have recomputed: %+v", snap)
	}
	keys3 := []uint32{0, 0, 0, 1, 1, 0, 2, 2}
	meas3 := []float64{10, 4, 6, 5}
	checkLeaf(t, c.Current(), 2, keys3, meas3)

	// Time travel: every old version still answers from its own leaf.
	v1, ok := c.At(1)
	if !ok {
		t.Fatal("version 1 gone")
	}
	checkLeaf(t, v1, 2, baseKeys, baseMeas)
	v2, ok := c.At(2)
	if !ok {
		t.Fatal("version 2 gone")
	}
	checkLeaf(t, v2, 2, keys2, meas2)
	if _, ok := c.At(99); ok {
		t.Fatal("unknown version resolved")
	}
	if got := c.Snapshots(); len(got) != 3 || got[0].Version != 1 || got[2].Version != 3 {
		t.Fatalf("snapshots %+v", got)
	}
}

func TestDeleteValidation(t *testing.T) {
	c := buildCube(1, []uint32{0, 1}, []float64{3, 5}, []int{2}, 0)
	// Unknown measure.
	if err := c.Delete([]uint32{0}, []float64{4}); err == nil {
		t.Fatal("delete of a measure the cell does not hold accepted")
	}
	// Unknown key.
	if err := c.Delete([]uint32{5}, []float64{3}); err == nil {
		t.Fatal("delete of an unknown key accepted")
	}
	// Double-delete of a single row within one batch.
	if err := c.Delete([]uint32{0}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]uint32{0}, []float64{3}); err == nil {
		t.Fatal("second delete of the same single row accepted")
	}
	// A failed multi-row delete leaves the batch untouched.
	before := c.Pending()
	if err := c.Delete([]uint32{1, 1}, []float64{5, 5}); err == nil {
		t.Fatal("over-deleting batch accepted")
	}
	if c.Pending() != before {
		t.Fatalf("failed delete grew the batch: %d → %d", before, c.Pending())
	}
	// Deleting a row appended in the same batch is fine.
	if err := c.Append([]uint32{0}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]uint32{0}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	checkLeaf(t, c.Current(), 1, []uint32{1}, []float64{5})
}

func TestEmptyCommitAdvancesVersionAndKeepsResidency(t *testing.T) {
	c := buildCube(2, []uint32{0, 0, 1, 1, 0, 1}, []float64{1, 2, 3}, []int{2, 2}, 0)
	srv := c.Current().Srv
	if _, _, err := srv.Query(lattice.MaskOf(0)); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.Rows != 3 || snap.Folded != 1 {
		t.Fatalf("empty commit snapshot %+v", snap)
	}
	_, stats, err := c.Current().Srv.Query(lattice.MaskOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Fatalf("resident cuboid lost across an empty commit: %+v", stats)
	}
}

func TestCommitFoldsResidentCuboids(t *testing.T) {
	// Rows over 2 dims; make dim-0 cuboid resident, then append and
	// delete; post-commit queries must hit the folded copy and be exact.
	keys := []uint32{0, 0, 0, 1, 1, 0, 1, 1}
	meas := []float64{2, 4, 6, 8}
	c := buildCube(2, keys, meas, []int{3, 3}, 0)
	q := lattice.MaskOf(0)
	if _, _, err := c.Current().Srv.Query(q); err != nil {
		t.Fatal(err)
	}
	// Interior append + interior delete: retractable at every level
	// (cell (0,*) has range [2,4]∪... dim-0 group 0 = {2,4}; append 3
	// keeps extremes, delete 4 touches the max → cuboid goes dirty).
	if err := c.Append([]uint32{0, 1}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Folded != 1 || snap.Dirty != 0 {
		t.Fatalf("append-only commit should fold the resident cuboid: %+v", snap)
	}
	_, stats, err := c.Current().Srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Fatalf("folded cuboid not resident post-commit: %+v", stats)
	}
	cub, _, _ := c.Current().Srv.Query(q)
	// Group 0 of dim 0: measures {2,4,3} → count 3, sum 9.
	if cub.Rows() != 2 || cub.States[0].Count != 3 || cub.States[0].Sum != 9 {
		t.Fatalf("folded cuboid wrong: %+v", cub.States)
	}

	// Deleting a group extreme dirties the resident cuboid: measure 4
	// lives in leaf cell (0,1) and is the max of dim-0 group 0 {2,4,3}.
	if err := c.Delete([]uint32{0, 1}, []float64{4}); err != nil {
		t.Fatal(err)
	}
	snap, err = c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dirty != 1 || snap.Folded != 0 {
		t.Fatalf("extreme delete should dirty the resident cuboid: %+v", snap)
	}
	_, stats, err = c.Current().Srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatalf("dirty cuboid must be lazily re-derived, not served stale: %+v", stats)
	}
	cub, _, _ = c.Current().Srv.Query(q)
	if cub.States[0].Count != 2 || cub.States[0].Sum != 5 || cub.States[0].Max != 3 {
		t.Fatalf("re-derived cuboid wrong: %+v", cub.States[0])
	}
}

func TestCardinalityGrowsAtCommit(t *testing.T) {
	c := buildCube(1, []uint32{0}, []float64{1}, []int{1}, 0)
	if err := c.Append([]uint32{7}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	checkLeaf(t, c.Current(), 1, []uint32{0, 7}, []float64{1, 2})
	// The grown code space must still sort/aggregate correctly.
	cub, _, err := c.Current().Srv.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if cub.Rows() != 1 || cub.States[0].Count != 2 || cub.States[0].Sum != 3 {
		t.Fatalf("all-cell after growth: %+v", cub.States)
	}
}

func TestAppendShapeErrors(t *testing.T) {
	c := buildCube(2, []uint32{0, 0}, []float64{1}, []int{1, 1}, 0)
	if err := c.Append([]uint32{1, 2, 3}, []float64{1}); err == nil {
		t.Fatal("ragged append accepted")
	}
	if err := c.Delete([]uint32{0}, []float64{1}); err == nil {
		t.Fatal("ragged delete accepted")
	}
}
