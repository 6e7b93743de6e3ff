package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"icebergcube/internal/lattice"
)

// TestPlanAdaptiveDeterministic: a re-plan is a pure function of its
// input — same snapshot, same seed, same winners and scores.
func TestPlanAdaptiveDeterministic(t *testing.T) {
	cards := []int{5, 300, 4, 70}
	leaf, _ := buildLeaf(cards, 4000, 1)
	srv := NewServer(leaf, cards, 1<<20)
	rng := rand.New(rand.NewSource(7))
	masks := lattice.All(len(cards))
	for i := 0; i < 300; i++ {
		if _, _, err := srv.Query(masks[rng.Intn(len(masks))]); err != nil {
			t.Fatal(err)
		}
	}
	in := planInput{
		stats:    srv.stats.snapshot(),
		leafMask: leaf.Mask,
		leafRows: leaf.Rows(),
		cards:    cards,
		budget:   256 << 10,
		seed:     42,
	}
	a := planAdaptive(in)
	b := planAdaptive(in)
	if !reflect.DeepEqual(a.winners, b.winners) {
		t.Fatalf("winners differ across identical plans: %v vs %v", a.winners, b.winners)
	}
	if !reflect.DeepEqual(a.scores, b.scores) {
		t.Fatalf("scores differ across identical plans")
	}
	if len(a.winners) == 0 {
		t.Fatal("plan selected nothing despite observed demand and budget")
	}
	// Winners must fit the budget under the planner's own size model.
	var bytes int64
	for _, w := range a.winners {
		for _, s := range in.stats {
			if s.Mask == w && s.Bytes > 0 {
				bytes += s.Bytes
			}
		}
	}
	if bytes > in.budget {
		t.Fatalf("winners' measured bytes %d exceed budget %d", bytes, in.budget)
	}
}

// TestAdaptiveAnswersMatchLRU: the serve-level equivalence oracle — two
// servers over the same leaf, one LRU, one adaptive (synchronous mode),
// fed the same query stream, return byte-identical cuboids for every
// query. Residency decides speed, never answers.
func TestAdaptiveAnswersMatchLRU(t *testing.T) {
	cards := []int{6, 40, 5, 25}
	leaf, _ := buildLeaf(cards, 3000, 3)
	lru := NewServer(leaf, cards, 64<<10)
	ada := NewServer(leaf, cards, 64<<10)
	ada.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 9, ReplanEvery: 16}, nil)

	rng := rand.New(rand.NewSource(11))
	masks := append(lattice.All(len(cards)), 0)
	for i := 0; i < 400; i++ {
		q := masks[rng.Intn(len(masks))]
		a, _, err := lru.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ada.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows() != b.Rows() {
			t.Fatalf("mask %b: %d cells under LRU, %d under adaptive", q, a.Rows(), b.Rows())
		}
		if !reflect.DeepEqual(a.Keys, b.Keys) || !reflect.DeepEqual(a.States, b.States) {
			t.Fatalf("mask %b: answers differ between policies", q)
		}
		checkCuboid(t, leaf, q, b)
	}
	if ada.Stats().Replans == 0 {
		t.Fatal("adaptive server never re-planned")
	}
}

// TestAdaptiveKeepsHotSetUnderPressure: with a budget sized for the hot
// shapes only, a stream of one-off bulky queries must not wash out the
// hot working set — the structural advantage over LRU. The same stream is
// fed to both policies; adaptive must end with a strictly better hit
// count.
func TestAdaptiveKeepsHotSetUnderPressure(t *testing.T) {
	// Dims 2 and 3 are sized so their single-dim cuboids fit the budget
	// (and therefore can displace the hot set under LRU) while their
	// combinations do not (rejected outright under both policies).
	cards := []int{4, 5, 18, 16}
	leaf, _ := buildLeaf(cards, 6000, 5)

	hot := []lattice.Mask{lattice.MaskOf(0), lattice.MaskOf(1), lattice.MaskOf(0, 1)}
	bulky := []lattice.Mask{lattice.MaskOf(2), lattice.MaskOf(3)}
	// Budget: all hot shapes fit; any bulky shape displaces one.
	var budget int64
	srvProbe := NewServer(leaf, cards, 1<<30)
	for _, h := range hot {
		cub, _, err := srvProbe.Query(h)
		if err != nil {
			t.Fatal(err)
		}
		budget += cub.SizeBytes()
	}

	run := func(srv *Server) (hits int64) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 600; i++ {
			var q lattice.Mask
			if i%4 == 3 {
				q = bulky[rng.Intn(len(bulky))]
			} else {
				q = hot[rng.Intn(len(hot))]
			}
			if _, _, err := srv.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return srv.Stats().CacheHits
	}

	lru := NewServer(leaf, cards, budget)
	ada := NewServer(leaf, cards, budget)
	ada.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 1, ReplanEvery: 32}, nil)
	lruHits, adaHits := run(lru), run(ada)
	if adaHits <= lruHits {
		t.Fatalf("adaptive hits %d not better than LRU hits %d at budget %d", adaHits, lruHits, budget)
	}
}

// TestAdaptiveEvictionIsCostAware: a resident with a higher retained
// score survives the admission of a lower-scored newcomer — the newcomer
// is rejected instead.
func TestAdaptiveEvictionIsCostAware(t *testing.T) {
	cards := []int{8, 9}
	leaf, _ := buildLeaf(cards, 500, 2)
	c := newCache(1 << 30)
	c.setPolicy(true, 1)

	srv := NewServer(leaf, cards, 1<<30)
	a, _, err := srv.Query(lattice.MaskOf(0))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := srv.Query(lattice.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits either one of them, but not both.
	budget := a.SizeBytes()
	if b.SizeBytes() > budget {
		budget = b.SizeBytes()
	}
	c.setBudget(budget)
	if ok, _ := c.add(a.Mask, a, c.generation(), 10.0); !ok {
		t.Fatal("first admission rejected")
	}
	if ok, _ := c.add(b.Mask, b, c.generation(), 5.0); ok {
		t.Fatal("lower-scored newcomer displaced a higher-scored resident")
	}
	if !c.peek(a.Mask) || c.peek(b.Mask) {
		t.Fatal("resident set wrong after rejected admission")
	}
	// A higher-scored newcomer does displace.
	if ok, _ := c.add(b.Mask, b, c.generation(), 20.0); !ok {
		t.Fatal("higher-scored newcomer rejected")
	}
	if c.peek(a.Mask) || !c.peek(b.Mask) {
		t.Fatal("resident set wrong after cost-aware eviction")
	}
}

// TestAdaptiveTieIsRejected: admission needs every victim to score
// strictly below the newcomer. A newcomer that only ties the resident it
// would displace is rejected, and nothing is evicted.
func TestAdaptiveTieIsRejected(t *testing.T) {
	cards := []int{8, 9}
	leaf, _ := buildLeaf(cards, 500, 2)
	srv := NewServer(leaf, cards, 1<<30)
	a, _, err := srv.Query(lattice.MaskOf(0))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := srv.Query(lattice.MaskOf(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(max(a.SizeBytes(), b.SizeBytes())) // either fits, not both
	c.setPolicy(true, 1)
	if ok, _ := c.add(a.Mask, a, c.generation(), 10.0); !ok {
		t.Fatal("first admission rejected")
	}
	if ok, evicted := c.add(b.Mask, b, c.generation(), 10.0); ok || evicted != 0 {
		t.Fatalf("tied newcomer: admitted=%v evicted=%d, want rejected with no eviction", ok, evicted)
	}
	if !c.peek(a.Mask) || c.peek(b.Mask) || c.evictions != 0 {
		t.Fatalf("resident set after a tied admission: a=%v b=%v evictions=%d", c.peek(a.Mask), c.peek(b.Mask), c.evictions)
	}
}

// TestPrecomputeBudgetDeterministic: Precompute admits in benefit order
// under the byte budget — the admitted set depends on the mask set, not
// the caller's order — and reports what was computed but not retained.
func TestPrecomputeBudgetDeterministic(t *testing.T) {
	cards := []int{5, 300, 4, 70}
	leaf, _ := buildLeaf(cards, 4000, 1)

	masks := []lattice.Mask{
		lattice.MaskOf(0), lattice.MaskOf(1), lattice.MaskOf(2),
		lattice.MaskOf(0, 2), lattice.MaskOf(1, 3), lattice.MaskOf(3),
	}
	perm := []lattice.Mask{
		lattice.MaskOf(1, 3), lattice.MaskOf(3), lattice.MaskOf(0, 2),
		lattice.MaskOf(2), lattice.MaskOf(0), lattice.MaskOf(1),
	}

	residentAfter := func(order []lattice.Mask) (map[lattice.Mask]bool, int, []lattice.Mask) {
		srv := NewServer(leaf, cards, 8<<10) // tight: not all fit
		admitted, skipped := srv.Precompute(order)
		return srv.cache.residentSet(), admitted, skipped
	}
	r1, n1, s1 := residentAfter(masks)
	r2, n2, s2 := residentAfter(perm)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("resident set depends on caller order: %v vs %v", r1, r2)
	}
	if n1 != n2 {
		t.Fatalf("admitted count depends on caller order: %d vs %d", n1, n2)
	}
	if len(s1) == 0 {
		t.Fatal("expected some masks skipped under a tight budget")
	}
	if len(s1) != len(s2) {
		t.Fatalf("skipped count depends on caller order: %v vs %v", s1, s2)
	}
	for _, sk := range s1 {
		if r1[sk] {
			t.Fatalf("mask %b both skipped and resident", sk)
		}
	}
	if n1+len(s1) != len(masks) {
		t.Fatalf("admitted %d + skipped %d != requested %d", n1, len(s1), len(masks))
	}
}

// TestBackgroundFillsMaterializeWinners: with an executor attached, a
// re-plan's winners are computed off the query path and admitted; Wait
// observes the quiescent cache.
func TestBackgroundFillsMaterializeWinners(t *testing.T) {
	cards := []int{6, 40, 5}
	leaf, _ := buildLeaf(cards, 2000, 4)
	srv := NewServer(leaf, cards, 1<<20)
	bg := NewBackground()
	defer bg.Close()
	srv.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 3, ReplanEvery: 8}, bg)

	rng := rand.New(rand.NewSource(6))
	masks := lattice.All(len(cards))
	for i := 0; i < 100; i++ {
		if _, _, err := srv.Query(masks[rng.Intn(len(masks))]); err != nil {
			t.Fatal(err)
		}
	}
	bg.Wait()
	m := srv.Stats()
	if m.Replans == 0 {
		t.Fatal("no background re-plan ran")
	}
	planned := srv.planned.Load()
	if planned == nil || len(*planned) == 0 {
		t.Fatal("no winners planned")
	}
	for w := range *planned {
		if !srv.cache.peek(w) {
			t.Fatalf("planned winner %b not resident after Wait", w)
		}
	}
}

// TestHandoffCarriesPolicyAndStats: the commit path's Handoff moves the
// policy, executor and workload model to the successor and retires the
// predecessor.
func TestHandoffCarriesPolicyAndStats(t *testing.T) {
	cards := []int{6, 40, 5}
	leaf, _ := buildLeaf(cards, 2000, 4)
	old := NewServer(leaf, cards, 1<<20)
	old.SetPolicy(PolicyOptions{Policy: PolicyAdaptive, Seed: 8, ReplanEvery: 16}, nil)
	for i := 0; i < 20; i++ {
		if _, _, err := old.Query(lattice.MaskOf(0)); err != nil {
			t.Fatal(err)
		}
	}
	next := NewServer(leaf, cards, 1<<20)
	old.Handoff(next)

	if got := next.Policy(); got.Policy != PolicyAdaptive || got.Seed != 8 || got.ReplanEvery != 16 {
		t.Fatalf("policy not carried: %+v", got)
	}
	if !old.retired.Load() {
		t.Fatal("predecessor not retired")
	}
	if d := next.stats.demand(lattice.MaskOf(0)); d != 20 {
		t.Fatalf("demand not adopted: got %d want 20", d)
	}
	// The forced re-plan lands on the successor's next query.
	if _, _, err := next.Query(lattice.MaskOf(0)); err != nil {
		t.Fatal(err)
	}
	if next.Stats().Replans == 0 {
		t.Fatal("handoff did not trigger a re-plan on the successor")
	}
}
