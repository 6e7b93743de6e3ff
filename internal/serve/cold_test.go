package serve

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
)

// What the cold tier inherits by being a leaf source under the one Server
// rather than a server of its own: policies, the stats table, background
// fills, generations, and error-carrying flights.

// buildCold makes a random row set as an in-memory cold source, plus the
// leaf cuboid those rows aggregate to — the reference for checkCuboid.
// Measures are small integers, so sums are exact in any fold order.
func buildCold(cards []int, tuples int, seed int64, chunk int) (*memColdSource, *Cuboid) {
	rng := rand.New(rand.NewSource(seed))
	src := &memColdSource{width: len(cards), chunk: chunk}
	set := results.NewSet()
	full := lattice.Mask(1<<uint(len(cards))) - 1
	for t := 0; t < tuples; t++ {
		key := make([]uint32, len(cards))
		for d, card := range cards {
			key[d] = uint32(rng.Intn(card))
		}
		m := float64(rng.Intn(100))
		src.keys = append(src.keys, key)
		src.meas = append(src.meas, m)
		st := agg.NewState()
		st.Add(m)
		set.WriteCell(full, key, st)
	}
	keys, states := set.CuboidColumns(full)
	return src, &Cuboid{Mask: full, Width: len(cards), Keys: keys, States: states}
}

func inflightLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// TestColdAdaptiveAnswersMatchLRU: the twin oracle over a streamed leaf —
// an LRU and a synchronous adaptive server under a budget too small for
// the working set return byte-identical, correct cuboids for a fuzzed mask
// sequence, and the adaptive one really plans from the cold stats table.
func TestColdAdaptiveAnswersMatchLRU(t *testing.T) {
	cards := []int{6, 40, 5, 25}
	const budget = 24 << 10
	lruSrc, leaf := buildCold(cards, 3000, 3, 256)
	adaSrc, _ := buildCold(cards, 3000, 3, 256)
	lru, err := NewColdServer(lruSrc, cards, budget)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := NewColdServer(adaSrc, cards, budget)
	if err != nil {
		t.Fatal(err)
	}
	ada.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 9, ReplanEvery: 16}, nil)

	rng := rand.New(rand.NewSource(11))
	masks := append(lattice.All(len(cards)), 0)
	for i := 0; i < 200; i++ {
		q := masks[rng.Intn(len(masks))]
		a, _, err := lru.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ada.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Keys, b.Keys) || !reflect.DeepEqual(a.States, b.States) {
			t.Fatalf("mask %b: answers differ between policies", q)
		}
		checkCuboid(t, leaf, q, b)
	}
	for name, s := range map[string]*Server{"lru": lru, "adaptive": ada} {
		m := s.Stats()
		if m.ResidentBytes > m.BudgetBytes || m.Evictions+m.Rejected == 0 {
			t.Fatalf("%s: budget was not tight: %+v", name, m)
		}
		if m.ColdScans == 0 || m.AncestorAggregations == 0 || m.LeafBytes != 0 {
			t.Fatalf("%s: implausible cold metrics: %+v", name, m)
		}
	}
	if m := ada.Stats(); m.Replans == 0 || m.Policy != "adaptive" {
		t.Fatalf("adaptive cold server never re-planned: %+v", m)
	}
	if len(ada.CuboidStats()) == 0 {
		t.Fatal("cold server kept no per-cuboid stats")
	}
}

// TestColdFullMaskScansOnceThenHits: a streamed leaf pins nothing, so the
// full-mask cuboid is computed by one scan and then served from the cache
// like any other.
func TestColdFullMaskScansOnceThenHits(t *testing.T) {
	cards := []int{5, 4, 3}
	src, leaf := buildCold(cards, 500, 5, 64)
	s, err := NewColdServer(src, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Leaf() != nil {
		t.Fatal("a cold server reported a pinned leaf")
	}
	cub, qs, err := s.Query(leaf.Mask)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.ColdScan || qs.RowsScanned != 500 || qs.CellsScanned != 0 || !qs.Admitted {
		t.Fatalf("first full-mask query: %+v, want an admitted cold scan of 500 rows", qs)
	}
	checkCuboid(t, leaf, leaf.Mask, cub)
	scans := src.chunksYielded()
	_, qs, err = s.Query(leaf.Mask)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit || src.chunksYielded() != scans {
		t.Fatalf("second full-mask query touched the source: %+v", qs)
	}
	// A narrower query now derives from the cached full-mask cuboid, which
	// counts as an ancestor, not as the leaf.
	_, qs, err = s.Query(lattice.MaskOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if qs.ColdScan || qs.ServedFrom != leaf.Mask || qs.CellsScanned != leaf.Rows() {
		t.Fatalf("sub-query stats %+v, want derivation from the cached full cuboid", qs)
	}
	if m := s.Stats(); m.ColdScans != 1 || m.LeafAggregations != 1 || m.AncestorAggregations != 1 || m.RowsScanned != 500 {
		t.Fatalf("metrics %+v, want one cold scan and one ancestor aggregation", m)
	}
}

// failingSource fails every scan after two chunks while fail is set.
type failingSource struct {
	*memColdSource
	fail atomic.Bool
}

var errBoom = errors.New("boom")

func (f *failingSource) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	if !f.fail.Load() {
		return f.memColdSource.Scan(dims, yield)
	}
	n := 0
	return f.memColdSource.Scan(dims, func(cols [][]uint32, meas []float64) error {
		if n++; n > 2 {
			return errBoom
		}
		return yield(cols, meas)
	})
}

// TestColdFailedScanPoisonsNothing: a source error reaches the caller as
// is, and leaves no resident cuboid, no flight, no cancellation count and
// no fill behind — foreground, background fill and Precompute alike. Once
// the source recovers, so does the query.
func TestColdFailedScanPoisonsNothing(t *testing.T) {
	cards := []int{5, 4, 3}
	mem, leaf := buildCold(cards, 500, 8, 32)
	src := &failingSource{memColdSource: mem}
	s, err := NewColdServer(src, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := lattice.MaskOf(0, 2)

	src.fail.Store(true)
	if _, _, err := s.Query(q); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	s.fill(q, 1)
	if n, skipped := s.Precompute([]lattice.Mask{q}); n != 0 || !reflect.DeepEqual(skipped, []lattice.Mask{q}) {
		t.Fatalf("Precompute over a failing source admitted %d, skipped %v", n, skipped)
	}
	m := s.Stats()
	if m.ResidentCuboids != 0 || m.ResidentBytes != 0 || m.Canceled != 0 || m.BackgroundFills != 0 || m.Computes != 0 {
		t.Fatalf("failed scans left a trace: %+v", m)
	}
	if n := inflightLen(s); n != 0 {
		t.Fatalf("%d flights leaked by failed scans", n)
	}

	src.fail.Store(false)
	cub, qs, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.ColdScan || !qs.Admitted {
		t.Fatalf("recovery query stats %+v, want an admitted cold scan", qs)
	}
	checkCuboid(t, leaf, q, cub)
}

// TestColdFillRacingResetNotReadmitted: the generation guard covers
// background fills over a streamed leaf — a Reset landing between a fill's
// scan and its admission leaves the cache empty.
func TestColdFillRacingResetNotReadmitted(t *testing.T) {
	cards := []int{5, 4, 3}
	src, _ := buildCold(cards, 500, 6, 64)
	s, err := NewColdServer(src, cards, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := lattice.MaskOf(1, 2)
	s.testBeforeAdmit = func() { s.Reset() }
	s.fill(q, 1)
	s.testBeforeAdmit = nil
	if s.cache.peek(q) {
		t.Fatal("fill resurrected a cuboid into a cache Reset was supposed to empty")
	}
	if m := s.Stats(); m.BackgroundFills != 1 || m.BackgroundAdmitted != 0 || m.ResidentCuboids != 0 {
		t.Fatalf("metrics after a fill raced Reset: %+v", m)
	}
	if n := inflightLen(s); n != 0 {
		t.Fatalf("%d flights leaked", n)
	}
}

// TestColdBackgroundFillsRaceResetAndBudget: queries, background fills,
// Reset and SetBudget all running against one cold server (run under
// -race). Every answer stays correct, the byte budget holds at every
// observation, and once everything drains no flight is left and a final
// Reset empties the cache for good.
func TestColdBackgroundFillsRaceResetAndBudget(t *testing.T) {
	cards := []int{6, 30, 5}
	src, leaf := buildCold(cards, 2000, 4, 128)
	s, err := NewColdServer(src, cards, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	bg := NewBackground()
	defer bg.Close()
	s.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 3, ReplanEvery: 8}, bg)

	masks := append(lattice.All(len(cards)), 0)
	var stop atomic.Bool
	var churn, queriers sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			switch i % 3 {
			case 0:
				s.Reset()
			case 1:
				s.SetBudget(8 << 10)
			case 2:
				s.SetBudget(32 << 10)
			}
			if m := s.Stats(); m.ResidentBytes > m.BudgetBytes {
				t.Errorf("resident %d over budget %d", m.ResidentBytes, m.BudgetBytes)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				q := masks[rng.Intn(len(masks))]
				cub, _, err := s.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if want := len(refAggregate(leaf, q)); cub.Rows() != want {
					t.Errorf("mask %b: %d cells, want %d", q, cub.Rows(), want)
					return
				}
			}
		}(w)
	}
	queriers.Wait()
	stop.Store(true)
	churn.Wait()
	bg.Wait()

	if m := s.Stats(); m.Replans == 0 || m.BackgroundFills == 0 {
		t.Fatalf("background machinery never ran over the cold source: %+v", m)
	}
	if n := inflightLen(s); n != 0 {
		t.Fatalf("%d flights leaked", n)
	}
	s.Reset()
	if m := s.Stats(); m.ResidentCuboids != 0 || m.ResidentBytes != 0 {
		t.Fatalf("cache not empty after the final Reset: %+v", m)
	}
}
