package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
)

// buildLeaf makes a random leaf cuboid over dims with the given
// cardinalities: every distinct tuple once, with a deterministic state.
func buildLeaf(cards []int, tuples int, seed int64) (*Cuboid, []int) {
	rng := rand.New(rand.NewSource(seed))
	set := results.NewSet()
	var mask lattice.Mask
	for p := range cards {
		mask |= 1 << uint(p)
	}
	key := make([]uint32, len(cards))
	for t := 0; t < tuples; t++ {
		for d, card := range cards {
			key[d] = uint32(rng.Intn(card))
		}
		st := agg.NewState()
		st.Add(float64(rng.Intn(100)))
		set.WriteCell(mask, key, st)
	}
	keys, states := set.CuboidColumns(mask)
	return &Cuboid{Mask: mask, Width: len(cards), Keys: keys, States: states}, cards
}

// refAggregate is the trivial map-based reference the kernel is checked
// against.
func refAggregate(leaf *Cuboid, q lattice.Mask) map[string]agg.State {
	dims := q.Dims()
	out := make(map[string]agg.State)
	for i := 0; i < leaf.Rows(); i++ {
		row := leaf.Row(i)
		k := ""
		for _, d := range dims {
			k += fmt.Sprintf("%d|", row[d])
		}
		st, ok := out[k]
		if !ok {
			st = agg.NewState()
		}
		st.Merge(leaf.States[i])
		out[k] = st
	}
	return out
}

func checkCuboid(t *testing.T, leaf *Cuboid, q lattice.Mask, cub *Cuboid) {
	t.Helper()
	want := refAggregate(leaf, q)
	if cub.Rows() != len(want) {
		t.Fatalf("mask %b: %d cells, want %d", q, cub.Rows(), len(want))
	}
	prev := []uint32(nil)
	for i := 0; i < cub.Rows(); i++ {
		row := cub.Row(i)
		if prev != nil && slices.Compare(prev, row) >= 0 {
			t.Fatalf("mask %b: rows out of order at %d", q, i)
		}
		prev = append(prev[:0], row...)
		k := ""
		for _, v := range row {
			k += fmt.Sprintf("%d|", v)
		}
		w, ok := want[k]
		if !ok {
			t.Fatalf("mask %b: unexpected cell %v", q, row)
		}
		got := cub.States[i]
		if got.Count != w.Count || got.Sum != w.Sum || got.Min != w.Min || got.Max != w.Max {
			t.Fatalf("mask %b cell %v: state %+v want %+v", q, row, got, w)
		}
	}
}

// TestQueryMatchesReference: every group-by served (from leaf or cached
// ancestor, in random query order) equals the map-based reference.
func TestQueryMatchesReference(t *testing.T) {
	cards := []int{5, 300, 4, 70}
	leaf, _ := buildLeaf(cards, 4000, 1)
	srv := NewServer(leaf, cards, 1<<20)
	rng := rand.New(rand.NewSource(2))
	masks := lattice.All(len(cards))
	masks = append(masks, 0, 0) // include the "all" cuboid
	for i := 0; i < 200; i++ {
		q := masks[rng.Intn(len(masks))]
		cub, stats, err := srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Query != q {
			t.Fatalf("stats echo wrong mask: %b != %b", stats.Query, q)
		}
		if !stats.CacheHit && !q.SubsetOf(stats.ServedFrom) {
			t.Fatalf("served %b from non-ancestor %b", q, stats.ServedFrom)
		}
		checkCuboid(t, leaf, q, cub)
	}
	m := srv.Stats()
	if m.Queries != 200 || m.CacheHits == 0 || m.Computes == 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
}

// TestAncestorRewriting: once ABC is resident, AB must be aggregated from
// it (not the leaf), and the scan size must shrink accordingly.
func TestAncestorRewriting(t *testing.T) {
	cards := []int{4, 5, 6, 200}
	leaf, _ := buildLeaf(cards, 5000, 3)
	srv := NewServer(leaf, cards, 1<<20)
	abc := lattice.MaskOf(0, 1, 2)
	cubABC, stats, err := srv.Query(abc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ServedFrom != leaf.Mask || stats.CellsScanned != leaf.Rows() {
		t.Fatalf("cold ABC should rescan the leaf: %+v", stats)
	}
	ab := lattice.MaskOf(0, 1)
	_, stats, err = srv.Query(ab)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ServedFrom != abc {
		t.Fatalf("AB served from %b, want the cached ABC %b", stats.ServedFrom, abc)
	}
	if stats.CellsScanned != cubABC.Rows() {
		t.Fatalf("AB scanned %d cells, want ABC's %d", stats.CellsScanned, cubABC.Rows())
	}
	if stats.CellsScanned >= leaf.Rows() {
		t.Fatalf("ancestor rewrite saved nothing: %d vs leaf %d", stats.CellsScanned, leaf.Rows())
	}
	// Third query of AB is a pure hit.
	_, stats, err = srv.Query(ab)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit || stats.CellsScanned != 0 {
		t.Fatalf("repeat AB should hit: %+v", stats)
	}
}

// productLeaf is the leaf holding every tuple of the cards' cross product
// once, in tuple order, so each cuboid's row count is the product of its
// attributes' cards.
func productLeaf(cards []int) *Cuboid {
	w := len(cards)
	leaf := &Cuboid{Mask: lattice.Mask(1)<<uint(w) - 1, Width: w}
	key := make([]uint32, w)
	for {
		leaf.Keys = append(leaf.Keys, key...)
		st := agg.NewState()
		st.Add(float64(len(leaf.States) % 7))
		leaf.States = append(leaf.States, st)
		d := w - 1
		for ; d >= 0; d-- {
			if key[d]++; int(key[d]) < cards[d] {
				break
			}
			key[d] = 0
		}
		if d < 0 {
			return leaf
		}
	}
}

// TestCheapestSource table-tests the one source rule on both paths that
// use it: a foreground miss (QueryStats.ServedFrom) and the bulk warm
// (the derive cost the stats table records). The query is {1} with a card
// of 300, so sorting costs two radix passes, and a parent it is a prefix
// of ({1,2}, {1,3}) costs its rows while one it is not ({0,1}, the leaf)
// costs twice its rows.
func TestCheapestSource(t *testing.T) {
	q := lattice.MaskOf(1)
	cases := []struct {
		name     string
		cards    []int
		resident []lattice.Mask
		want     lattice.Mask // the leaf's full mask for the leaf
	}{
		{"prefix parent beats a smaller non-prefix one", []int{2, 300, 3, 4},
			[]lattice.Mask{lattice.MaskOf(0, 1), lattice.MaskOf(1, 2)}, lattice.MaskOf(1, 2)},
		{"prefix parent at passes× the rows ties, lower mask wins", []int{2, 300, 4, 3},
			[]lattice.Mask{lattice.MaskOf(1, 2), lattice.MaskOf(0, 1)}, lattice.MaskOf(0, 1)},
		{"non-prefix parent wins beyond passes× the rows", []int{2, 300, 5, 4},
			[]lattice.Mask{lattice.MaskOf(0, 1), lattice.MaskOf(1, 2)}, lattice.MaskOf(0, 1)},
		{"equal costs go to the lower mask", []int{2, 300, 3, 3},
			[]lattice.Mask{lattice.MaskOf(1, 3), lattice.MaskOf(1, 2)}, lattice.MaskOf(1, 2)},
		{"pinned leaf when no resident covers", []int{2, 300, 3, 4},
			[]lattice.Mask{lattice.MaskOf(0, 2)}, lattice.MaskOf(0, 1, 2, 3)},
		{"pinned leaf loses a tie to a resident of its size", []int{2, 300, 3, 1},
			[]lattice.Mask{lattice.MaskOf(0, 1, 2)}, lattice.MaskOf(0, 1, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaf := productLeaf(tc.cards)
			serverWith := func() *Server {
				srv := NewServer(leaf, tc.cards, 1<<30)
				for _, m := range tc.resident {
					if _, _, err := srv.Query(m); err != nil {
						t.Fatal(err)
					}
				}
				return srv
			}
			wantRows := 1
			for _, d := range tc.want.Dims() {
				wantRows *= tc.cards[d]
			}

			cub, st, err := serverWith().Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if st.ServedFrom != tc.want || st.CellsScanned != wantRows {
				t.Fatalf("query served from %b (%d cells), want %b (%d)", st.ServedFrom, st.CellsScanned, tc.want, wantRows)
			}
			checkCuboid(t, leaf, q, cub)

			srv := serverWith()
			if n, skipped := srv.Precompute([]lattice.Mask{q}); n != 1 || len(skipped) != 0 {
				t.Fatalf("warm admitted %d, skipped %v", n, skipped)
			}
			for _, cs := range srv.CuboidStats() {
				if cs.Mask == q && cs.DeriveCells != wantRows {
					t.Fatalf("warm derived from %d cells, want %b's %d", cs.DeriveCells, tc.want, wantRows)
				}
			}
		})
	}
}

// TestBudgetRespectedUnderPressure: resident bytes never exceed the
// budget, evictions happen, and evicted cuboids are recomputed correctly.
func TestBudgetRespectedUnderPressure(t *testing.T) {
	cards := []int{6, 7, 8, 9}
	leaf, _ := buildLeaf(cards, 3000, 7)
	budget := int64(4 << 10) // a few cuboids at most
	srv := NewServer(leaf, cards, budget)
	rng := rand.New(rand.NewSource(11))
	masks := lattice.All(len(cards))
	for i := 0; i < 300; i++ {
		q := masks[rng.Intn(len(masks))]
		cub, _, err := srv.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		checkCuboid(t, leaf, q, cub)
		if m := srv.Stats(); m.ResidentBytes > m.BudgetBytes {
			t.Fatalf("budget violated: %d > %d", m.ResidentBytes, m.BudgetBytes)
		}
	}
	m := srv.Stats()
	if m.Evictions == 0 {
		t.Fatalf("no evictions under a %dB budget: %+v", budget, m)
	}
}

// TestLRUEvictionOrder: with a budget for ~one cuboid, the least recently
// used entry goes first.
func TestLRUEvictionOrder(t *testing.T) {
	cards := []int{4, 4, 4}
	leaf, _ := buildLeaf(cards, 500, 13)
	a, b := lattice.MaskOf(0), lattice.MaskOf(1)
	srv := NewServer(leaf, cards, 0)
	cubA, _, _ := srv.Query(a)
	cubB, _, _ := srv.Query(b)
	srv.SetBudget(cubA.SizeBytes() + cubB.SizeBytes() + cuboidOverheadBytes/2)
	srv.Reset()
	srv.Query(a)                 // A resident
	srv.Query(b)                 // B resident
	srv.Query(a)                 // A most recent
	srv.Query(lattice.MaskOf(2)) // must evict B, the LRU
	if _, stats, _ := srv.Query(a); !stats.CacheHit {
		t.Fatal("recently used A was evicted")
	}
	if _, stats, _ := srv.Query(b); stats.CacheHit {
		t.Fatal("LRU B survived eviction")
	}
}

// TestOversizedCuboidNotAdmitted: a cuboid bigger than the whole budget
// is served but not retained; the resident set stays within budget.
func TestOversizedCuboidNotAdmitted(t *testing.T) {
	cards := []int{50, 60, 3}
	leaf, _ := buildLeaf(cards, 4000, 17)
	srv := NewServer(leaf, cards, 512)
	q := lattice.MaskOf(0, 1)
	cub, stats, err := srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if cub.SizeBytes() <= 512 {
		t.Skip("workload produced a tiny cuboid; nothing to reject")
	}
	if stats.Admitted {
		t.Fatal("oversized cuboid admitted")
	}
	if m := srv.Stats(); m.Rejected == 0 || m.ResidentBytes > m.BudgetBytes {
		t.Fatalf("rejection not accounted: %+v", m)
	}
	checkCuboid(t, leaf, q, cub)
}

// TestSingleflightCoalesces: many concurrent identical cold misses
// compute the cuboid exactly once.
func TestSingleflightCoalesces(t *testing.T) {
	cards := []int{5, 6, 7, 8}
	leaf, _ := buildLeaf(cards, 8000, 19)
	srv := NewServer(leaf, cards, 1<<20)
	q := lattice.MaskOf(0, 2)
	const G = 32
	var wg sync.WaitGroup
	cubs := make([]*Cuboid, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cub, _, err := srv.Query(q)
			if err != nil {
				t.Error(err)
			}
			cubs[g] = cub
		}(g)
	}
	wg.Wait()
	m := srv.Stats()
	if m.Computes != 1 {
		t.Fatalf("%d computes for %d identical concurrent misses, want 1", m.Computes, G)
	}
	if m.CacheHits+m.Coalesced != G-1 {
		t.Fatalf("hits %d + coalesced %d != %d", m.CacheHits, m.Coalesced, G-1)
	}
	for g := 1; g < G; g++ {
		if cubs[g] != cubs[0] {
			t.Fatal("coalesced queries returned different cuboids")
		}
	}
	checkCuboid(t, leaf, q, cubs[0])
}

// TestConcurrentMixedQueries: random concurrent traffic under a tight
// budget stays correct (run under -race in CI).
func TestConcurrentMixedQueries(t *testing.T) {
	cards := []int{5, 6, 7, 8}
	leaf, _ := buildLeaf(cards, 4000, 23)
	srv := NewServer(leaf, cards, 8<<10)
	masks := lattice.All(len(cards))
	const G = 8
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 100; i++ {
				q := masks[rng.Intn(len(masks))]
				cub, _, err := srv.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				want := refAggregate(leaf, q)
				if cub.Rows() != len(want) {
					t.Errorf("mask %b: %d cells, want %d", q, cub.Rows(), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m := srv.Stats(); m.ResidentBytes > m.BudgetBytes {
		t.Fatalf("budget violated: %+v", m)
	}
}

// TestQueryOutsideLeafErrors: masks beyond the leaf are rejected.
func TestQueryOutsideLeafErrors(t *testing.T) {
	cards := []int{3, 3}
	leaf, _ := buildLeaf(cards, 100, 29)
	srv := NewServer(leaf, cards, 0)
	if _, _, err := srv.Query(lattice.MaskOf(5)); err == nil {
		t.Fatal("out-of-leaf mask accepted")
	}
}

// TestAllCuboid: the empty mask rolls everything into one cell whose
// count equals the leaf's total.
func TestAllCuboid(t *testing.T) {
	cards := []int{4, 5}
	leaf, _ := buildLeaf(cards, 700, 31)
	srv := NewServer(leaf, cards, 0)
	cub, _, err := srv.Query(0)
	if err != nil {
		t.Fatal(err)
	}
	if cub.Rows() != 1 || cub.Width != 0 {
		t.Fatalf("ALL cuboid has %d rows width %d", cub.Rows(), cub.Width)
	}
	var total int64
	for _, st := range leaf.States {
		total += st.Count
	}
	if cub.States[0].Count != total {
		t.Fatalf("ALL count %d != leaf total %d", cub.States[0].Count, total)
	}
}
