package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// The bulk warm (Precompute) derives top-down from what it already built
// and skips the sort for prefix children. These tests pin that it changes
// nothing a caller can observe except the work: every cuboid equals the
// leaf-derived one, and admission is today's for every budget.

// warmCards need one, two and three radix passes.
var warmCards = []int{7, 300, 3, 70000, 12}

// buildWarmLeaf is buildLeaf with fractional measures, so that a sum
// folded through a different parent re-associates its additions.
func buildWarmLeaf(tuples int, seed int64) *Cuboid {
	rng := rand.New(rand.NewSource(seed))
	set := results.NewSet()
	full := lattice.Mask(1)<<uint(len(warmCards)) - 1
	key := make([]uint32, len(warmCards))
	for t := 0; t < tuples; t++ {
		for d, card := range warmCards {
			key[d] = uint32(rng.Intn(card))
		}
		st := agg.NewState()
		st.Add(rng.Float64() * 1000)
		set.WriteCell(full, key, st)
	}
	keys, states := set.CuboidColumns(full)
	return &Cuboid{Mask: full, Width: len(warmCards), Keys: keys, States: states}
}

// fromLeaf is q aggregated straight from the leaf: the reference.
func fromLeaf(leaf *Cuboid, q lattice.Mask) *Cuboid {
	cols, cards := project(warmCards, leaf.Mask, q)
	return aggregateFrom(leaf, q, cols, cards, relation.NewScratch())
}

// refCuboid is q aggregated from the leaf without aggregateFrom: distinct
// projected tuples in sorted order, each folding its leaf rows in order.
func refCuboid(leaf *Cuboid, q lattice.Mask) *Cuboid {
	dims := q.Dims()
	var tuples [][]uint32
	states := make(map[string]agg.State)
	for i := 0; i < leaf.Rows(); i++ {
		tuple := make([]uint32, len(dims))
		for j, d := range dims {
			tuple[j] = leaf.Row(i)[d]
		}
		k := fmt.Sprint(tuple)
		st, ok := states[k]
		if !ok {
			st = agg.NewState()
			tuples = append(tuples, tuple)
		}
		st.Merge(leaf.States[i])
		states[k] = st
	}
	slices.SortFunc(tuples, slices.Compare)
	out := &Cuboid{Mask: q, Width: len(dims)}
	for _, tuple := range tuples {
		out.Keys = append(out.Keys, tuple...)
		out.States = append(out.States, states[fmt.Sprint(tuple)])
	}
	return out
}

// warmMasks is every group-by of the leaf but the leaf itself, shuffled.
func warmMasks(leaf *Cuboid, seed int64) []lattice.Mask {
	var masks []lattice.Mask
	for m := lattice.Mask(0); m < leaf.Mask; m++ {
		masks = append(masks, m)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(masks), func(i, j int) { masks[i], masks[j] = masks[j], masks[i] })
	return masks
}

// sameCuboid checks got against want: keys, counts, minima and maxima
// exactly, sums within 1e-9 relative.
func sameCuboid(t *testing.T, got, want *Cuboid) {
	t.Helper()
	if got.Mask != want.Mask || got.Width != want.Width || !slices.Equal(got.Keys, want.Keys) || len(got.States) != len(want.States) {
		t.Fatalf("mask %b: %d cells, want %d (or keys differ)", want.Mask, got.Rows(), want.Rows())
	}
	for i, g := range got.States {
		w := want.States[i]
		if g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || math.Abs(g.Sum-w.Sum) > 1e-9*math.Abs(w.Sum) {
			t.Fatalf("mask %b cell %d: state %+v, want %+v", want.Mask, i, g, w)
		}
	}
}

// TestPrecomputeTopDownMatchesLeaf: every cuboid of the warm equals the
// one aggregated from the leaf, whichever parent it was derived from.
func TestPrecomputeTopDownMatchesLeaf(t *testing.T) {
	leaf := buildWarmLeaf(3000, 1)
	srv := NewServer(leaf, warmCards, 1<<30)
	masks := warmMasks(leaf, 1)
	if n, skipped := srv.Precompute(masks); n != len(masks) || len(skipped) != 0 {
		t.Fatalf("admitted %d, skipped %v; want all %d", n, skipped, len(masks))
	}
	for _, q := range masks {
		got, ok := srv.cache.get(q)
		if !ok {
			t.Fatalf("mask %b not resident", q)
		}
		sameCuboid(t, got, fromLeaf(leaf, q))
	}
	// Only the top level reads the leaf; below it a parent is smaller.
	var fromLeafCells int
	for _, cs := range srv.CuboidStats() {
		if cs.DeriveCells == leaf.Rows() {
			fromLeafCells++
		}
	}
	if fromLeafCells >= len(masks) {
		t.Fatalf("%d of %d cuboids derived from the leaf: the plan is not top-down", fromLeafCells, len(masks))
	}
}

// TestAggregateFromEveryAncestor: each producer of grouped code rows
// (relation.GroupRows) over every (ancestor, query) pair of the lattice —
// the prefix pairs, which skip the sort, and the rest, the leaf as
// ancestor included — equals the reference. aggregateFrom rolls up a
// resident ancestor; Delta.Project projects a leaf-keyed delta onto the
// ancestor and then onto the query, its added and deleted sides each
// checked; the cold fold has only the table itself as ancestor and folds
// it in chunks of 1, 7 and every row.
func TestAggregateFromEveryAncestor(t *testing.T) {
	leaf := buildWarmLeaf(2000, 2)
	rng := rand.New(rand.NewSource(2))
	del := &Cuboid{Mask: leaf.Mask, Width: leaf.Width, Keys: leaf.Keys, States: make([]agg.State, leaf.Rows())}
	for i := range del.States {
		del.States[i] = agg.NewState()
		del.States[i].Add(rng.Float64() * 1000)
	}
	delta := &Delta{Width: leaf.Width, Keys: leaf.Keys, Add: leaf.States, Del: del.States}
	// The cold table is the leaf's rows, shuffled so chunks interleave.
	table := &memColdSource{width: leaf.Width}
	for _, i := range rng.Perm(leaf.Rows()) {
		if leaf.States[i].Count != 1 {
			t.Fatalf("leaf cell %d holds %d rows; the table needs one each", i, leaf.States[i].Count)
		}
		table.keys = append(table.keys, leaf.Row(i))
		table.meas = append(table.meas, leaf.States[i].Sum)
	}
	sc := relation.NewScratch()

	type producer struct {
		name string
		run  func(t *testing.T, anc *Cuboid, q lattice.Mask)
	}
	producers := []producer{
		{"aggregateFrom", func(t *testing.T, anc *Cuboid, q lattice.Mask) {
			cols, cards := project(warmCards, anc.Mask, q)
			sameCuboid(t, aggregateFrom(anc, q, cols, cards, sc), refCuboid(leaf, q))
		}},
		{"Delta.Project", func(t *testing.T, anc *Cuboid, q lattice.Mask) {
			cols, _ := project(warmCards, anc.Mask, q)
			_, ancCards := project(warmCards, anc.Mask, anc.Mask)
			d := delta.Project(anc.Mask.Dims(), warmCards, sc).Project(cols, ancCards, sc)
			sameCuboid(t, &Cuboid{Mask: q, Width: d.Width, Keys: d.Keys, States: d.Add}, refCuboid(leaf, q))
			sameCuboid(t, &Cuboid{Mask: q, Width: d.Width, Keys: d.Keys, States: d.Del}, refCuboid(del, q))
		}},
	}
	for _, chunk := range []int{1, 7, leaf.Rows()} {
		producers = append(producers, producer{fmt.Sprintf("cold fold/chunk=%d", chunk), func(t *testing.T, anc *Cuboid, q lattice.Mask) {
			if anc.Mask != leaf.Mask {
				return
			}
			table.chunk = chunk
			srv, err := NewColdServer(table, warmCards, 0)
			if err != nil {
				t.Fatal(err)
			}
			var st QueryStats
			cub, err := srv.scanCold(context.Background(), q, sc, &st)
			if err != nil {
				t.Fatal(err)
			}
			sameCuboid(t, cub, refCuboid(leaf, q))
		}})
	}

	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			prefixes := 0
			for a := lattice.Mask(0); a <= leaf.Mask; a++ {
				anc := fromLeaf(leaf, a)
				for q := lattice.Mask(0); q <= a; q++ {
					if !q.SubsetOf(a) {
						continue
					}
					if q.PrefixOf(a) {
						prefixes++
					}
					p.run(t, anc, q)
				}
			}
			if prefixes == 0 {
				t.Fatal("no prefix pair exercised")
			}
		})
	}
}

// TestPrecomputeBudgetSweep: at every budget from 0 to the whole cube the
// warm admits what admitting the leaf-derived cuboids in score order
// admits — same resident set and recency order, same admitted count, same
// skipped list — and ResidentBytes ≤ Budget holds after every admission.
func TestPrecomputeBudgetSweep(t *testing.T) {
	leaf := buildWarmLeaf(3000, 3)
	masks := warmMasks(leaf, 3)

	type want struct {
		resident []lattice.Mask
		admitted int
		skipped  []lattice.Mask
	}
	type scored struct {
		cub   *Cuboid
		score float64
	}
	var byScore []scored
	var whole int64
	for _, q := range masks {
		cub := fromLeaf(leaf, q)
		byScore = append(byScore, scored{cub, admissionScore(1, leaf.Rows(), cub.Rows(), cub.SizeBytes())})
		whole += cub.SizeBytes()
	}
	slices.SortFunc(byScore, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.cub.Mask, b.cub.Mask)
	})
	reference := func(budget int64) want {
		c := newCache(budget)
		var w want
		for _, p := range byScore {
			if ok, _ := c.add(p.cub.Mask, p.cub, c.generation(), p.score); ok {
				w.admitted++
			} else {
				w.skipped = append(w.skipped, p.cub.Mask)
			}
		}
		for _, cub := range c.resident() {
			w.resident = append(w.resident, cub.Mask)
		}
		return w
	}

	for _, budget := range []int64{0, whole / 64, whole / 16, whole / 8, whole / 4, whole / 2, whole * 3 / 4, whole - 1, whole} {
		srv := NewServer(leaf, warmCards, 1)
		srv.cache.budget = budget // NewServer maps 0 to the default
		checkBudget := func() {
			if m := srv.Stats(); m.ResidentBytes > m.BudgetBytes {
				t.Fatalf("budget %d: resident %d bytes", budget, m.ResidentBytes)
			}
		}
		srv.testBeforeAdmit = checkBudget
		var got want
		got.admitted, got.skipped = srv.Precompute(masks)
		checkBudget()
		for _, cub := range srv.Resident() {
			got.resident = append(got.resident, cub.Mask)
		}
		if w := reference(budget); !reflect.DeepEqual(got, w) {
			t.Fatalf("budget %d of %d:\n got %+v\nwant %+v", budget, whole, got, w)
		}
	}
}

// TestPrecomputeResetBetweenLevelsAdmitsNothing: a Reset that lands after
// the warm's first level rejects the whole batch — a cuboid of a later
// level, derived from a pre-reset parent, is never admitted.
func TestPrecomputeResetBetweenLevelsAdmitsNothing(t *testing.T) {
	leaf := buildWarmLeaf(1000, 4)
	srv := NewServer(leaf, warmCards, 1<<30)
	resets := 0
	srv.testBeforeAdmit = func() {
		if resets == 0 {
			srv.Reset()
		}
		resets++
	}
	masks := warmMasks(leaf, 4)
	admitted, skipped := srv.Precompute(masks)
	if admitted != 0 || len(skipped) != len(masks) {
		t.Fatalf("admitted %d, skipped %d of %d after a Reset between levels", admitted, len(skipped), len(masks))
	}
	if m := srv.Stats(); m.ResidentCuboids != 0 || m.ResidentBytes != 0 {
		t.Fatalf("cuboids resident after a Reset between levels: %+v", m)
	}
}

// TestColdPrecomputeScansLeafOnce: warming every group-by of a streamed
// leaf reads the store once — the full-mask cuboid — and derives the rest
// from what it built.
func TestColdPrecomputeScansLeafOnce(t *testing.T) {
	cards := []int{5, 4, 300, 3, 6}
	src, leaf := buildCold(cards, 2000, 5, 128)
	srv, err := NewColdServer(src, cards, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	masks := lattice.All(len(cards))
	if n, skipped := srv.Precompute(masks); n != len(masks) || len(skipped) != 0 {
		t.Fatalf("admitted %d, skipped %v; want all %d", n, skipped, len(masks))
	}
	if m := srv.Stats(); m.ColdScans != 1 || m.RowsScanned != int64(src.Rows()) {
		t.Fatalf("%d cold scans over %d rows, want 1 over %d", m.ColdScans, m.RowsScanned, src.Rows())
	}
	for _, q := range masks {
		cub, ok := srv.cache.get(q)
		if !ok {
			t.Fatalf("mask %b not resident", q)
		}
		checkCuboid(t, leaf, q, cub)
	}
}
