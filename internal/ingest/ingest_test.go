package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
	"icebergcube/internal/serve"
)

// keyString renders a code tuple as a comparable map key.
func keyString(key []uint32) string { return fmt.Sprint(key) }

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

// TestAppendOnlyCommitKeepsEveryWarmCuboid: appends only merge, so a
// commit never dirties a resident cuboid. With every cuboid of a random
// cube warm, an append-only commit folds them all forward, each one then
// hits, and each folded answer equals the same cuboid derived from
// scratch over the base plus appended rows.
func TestAppendOnlyCommitKeepsEveryWarmCuboid(t *testing.T) {
	const width = 4
	cards := []int{5, 4, 6, 3}
	rng := rand.New(rand.NewSource(11))
	rows := func(n int) ([]uint32, []float64) {
		keys := make([]uint32, 0, n*width)
		meas := make([]float64, n)
		for i := range meas {
			for d := 0; d < width; d++ {
				keys = append(keys, uint32(rng.Intn(cards[d])))
			}
			meas[i] = float64(rng.Intn(100))
		}
		return keys, meas
	}
	baseKeys, baseMeas := rows(400)
	c := buildCube(width, baseKeys, baseMeas, cards, 0)
	full := lattice.Mask(1<<width - 1)
	var warm []lattice.Mask
	for _, q := range lattice.All(width) {
		if q == full {
			continue // the leaf is pinned, never a cache entry
		}
		if _, _, err := c.Current().Srv.Query(q); err != nil {
			t.Fatal(err)
		}
		warm = append(warm, q)
	}

	appKeys, appMeas := rows(40)
	if err := c.Append(appKeys, appMeas); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dirty != 0 || snap.Folded < len(warm) {
		t.Fatalf("append-only commit lost residency (%d cuboids warm): %+v", len(warm), snap)
	}
	allKeys := append(append([]uint32(nil), baseKeys...), appKeys...)
	allMeas := append(append([]float64(nil), baseMeas...), appMeas...)
	checkLeaf(t, c.Current(), width, allKeys, allMeas)
	scratch := buildCube(width, allKeys, allMeas, cards, 0)
	for _, q := range warm {
		got, st, err := c.Current().Srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit {
			t.Fatalf("warm cuboid %b missed after an append-only commit: %+v", q, st)
		}
		want, _, err := scratch.Current().Srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Keys, want.Keys) {
			t.Fatalf("cuboid %b: folded keys differ from scratch", q)
		}
		for i, s := range got.States {
			w := want.States[i]
			if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
				t.Fatalf("cuboid %b cell %v: %+v want %+v", q, got.Row(i), s, w)
			}
		}
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

// TestCommitEdgeCases: one batch per case against a width-2 base, checked
// three ways — the leaf against a reference aggregation, the live rows
// against the measure column's order contract (leaf order; within a cell
// base rows in row order, appends at the end, a delete removing the
// first equal measure), and the count of MIN/MAX re-derivations.
func TestCommitEdgeCases(t *testing.T) {
	type mut struct {
		del  bool
		key  []uint32
		meas float64
	}
	// Leaf order of the base: (0,0) [4 2 5], (1,1) [9 3], (2,2) [2 6 2],
	// (3,3) [7].
	baseKeys := []uint32{0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 2, 2, 3, 3, 1, 1, 2, 2}
	baseMeas := []float64{4, 9, 2, 2, 5, 6, 7, 3, 2}
	cases := []struct {
		name       string
		batch      []mut
		keys       []uint32 // live rows after the commit, in leaf order
		meas       []float64
		recomputed int
	}{{
		name: "cell emptied and refilled",
		batch: []mut{
			{true, []uint32{3, 3}, 7},
			{false, []uint32{3, 3}, 8},
			{false, []uint32{3, 3}, 1},
		},
		keys: []uint32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3},
		meas: []float64{4, 2, 5, 9, 3, 2, 6, 2, 8, 1},
	}, {
		name: "new key appended and deleted",
		batch: []mut{
			{false, []uint32{1, 2}, 6},
			{false, []uint32{1, 2}, 6},
			{true, []uint32{1, 2}, 6},
			{true, []uint32{1, 2}, 6},
		},
		keys: []uint32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3},
		meas: []float64{4, 2, 5, 9, 3, 2, 6, 2, 7},
	}, {
		name:       "MIN carrier among equal duplicates",
		batch:      []mut{{true, []uint32{2, 2}, 2}},
		keys:       []uint32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3},
		meas:       []float64{4, 2, 5, 9, 3, 6, 2, 7},
		recomputed: 1,
	}, {
		name: "first and last leaf cells",
		batch: []mut{
			{true, []uint32{0, 0}, 2},
			{true, []uint32{3, 3}, 7},
			{false, []uint32{4, 4}, 1},
		},
		keys:       []uint32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 4, 4},
		meas:       []float64{4, 5, 9, 3, 2, 6, 2, 1},
		recomputed: 1,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildCube(2, baseKeys, baseMeas, []int{4, 4}, 0)
			for _, m := range tc.batch {
				op := c.Append
				if m.del {
					op = c.Delete
				}
				if err := op(m.key, []float64{m.meas}); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := c.Commit()
			if err != nil {
				t.Fatal(err)
			}
			checkLeaf(t, c.Current(), 2, tc.keys, tc.meas)
			keys, meas := c.LiveRows()
			if !slices.Equal(keys, tc.keys) || !slices.Equal(meas, tc.meas) {
				t.Fatalf("live rows %v %v, want %v %v", keys, meas, tc.keys, tc.meas)
			}
			if snap.Rows != int64(len(tc.meas)) || snap.Recomputed != tc.recomputed {
				t.Fatalf("snapshot %+v: want %d rows, %d recomputed", snap, len(tc.meas), tc.recomputed)
			}
		})
	}
}

// TestNewRetainsOneMeasureColumn: besides the leaf it is handed, a cube
// keeps one measure per row and one offset per leaf cell — no copy of
// the row keys and no hash index over them.
func TestNewRetainsOneMeasureColumn(t *testing.T) {
	const (
		width = 4
		n     = 50000
	)
	cards := []int{16, 16, 16, 16}
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint32, 0, n*width)
	meas := make([]float64, n)
	for i := range meas {
		for d := 0; d < width; d++ {
			keys = append(keys, uint32(rng.Intn(cards[d])))
		}
		meas[i] = float64(rng.Intn(100))
	}
	leaf := serve.LeafFromRows(width, keys, meas, cards)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(leaf, keys, meas, cards, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	runtime.KeepAlive(leaf)
	runtime.KeepAlive(keys)
	runtime.KeepAlive(meas)

	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if perRow > 24 {
		t.Fatalf("New retains %.1f B/row beyond the leaf, want ≤ 24", perRow)
	}
}
