// Package serve is the lattice-aware online serving layer over a
// materialized finest cuboid (§5.1). Instead of rescanning every leaf
// cell per query — O(leaf) work however coarse the group-by — it keeps a
// registry of resident cuboids keyed by lattice.Mask and derives each
// missing cuboid from the cheapest one it holds (Gray et al.'s
// cube-lattice observation: any cuboid is derivable from any superset
// cuboid by further aggregation). One rule picks that source for every
// foreground miss, background fill and bulk warm, the paper's ASL choice
// (§3.3.2, cheapestSource): a parent the query is a prefix of costs its
// rows, because its order is reused and nothing is sorted; any other
// parent costs its rows times the query's radix passes. Computed cuboids
// are admitted into a byte-budgeted cache, so repeated and nearby query
// shapes amortize to near-lookup cost. Concurrent identical misses are
// coalesced so each cuboid is computed once (singleflight).
//
// Where the leaf lives is a field, not a server type: a resident leaf is
// pinned outside the cache, never evicted, and competes as a source like
// any resident cuboid; a ColdSource stays on disk and is streamed,
// projected onto the queried columns, only when no resident cuboid covers
// a query. Everything above the leaf — cache, singleflight, counters,
// stats table, policies, background fills — is the same code for both.
//
// Residency is governed by one of two policies. The default LRU admits
// every computed cuboid and evicts by recency. The adaptive policy
// (PolicyAdaptive) instead tracks per-cuboid demand and measured derive
// cost in a stats table, periodically runs a greedy benefit-per-byte plan
// over the lattice (policy.go), materializes missing winners in the
// background (background.go), and evicts the resident cuboid with the
// lowest retained benefit per byte. Both policies serve byte-identical
// answers — residency only decides how fast, never what.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// DefaultBudgetBytes is the cache budget used when the caller passes a
// non-positive budget: large enough to hold the hot cuboids of any of the
// paper's workloads, small enough to stay irrelevant next to the leaf.
const DefaultBudgetBytes = 64 << 20

// QueryStats describes how one query was served — threaded back to the
// caller for observability and asserted on by the serving experiments.
type QueryStats struct {
	// Query is the requested group-by.
	Query lattice.Mask
	// ServedFrom is the cuboid the answer came from: Query itself on a
	// cache hit, else the source cheapestSource picked among the resident
	// cuboids and the pinned leaf (the leaf's full mask when the leaf
	// itself was aggregated, resident or streamed).
	ServedFrom lattice.Mask
	// CacheHit reports the answer was already resident (no aggregation).
	CacheHit bool
	// Coalesced reports this query waited on an identical in-flight miss
	// instead of computing its own copy.
	Coalesced bool
	// ColdScan reports the answer was aggregated by streaming a cold leaf
	// source (no resident ancestor covered the query); RowsScanned is the
	// number of cold rows streamed (0 unless ColdScan).
	ColdScan    bool
	RowsScanned int64
	// CellsScanned is the number of resident cells aggregated (0 on a hit
	// or a cold scan).
	CellsScanned int
	// ResultCells is the answer cuboid's cell count.
	ResultCells int
	// Admitted reports the computed cuboid was retained in the cache.
	Admitted bool
	// Evicted is the number of cuboids evicted to admit this one.
	Evicted int
}

// Metrics are the server's cumulative counters.
type Metrics struct {
	// Queries is the total number of Query calls.
	Queries int64
	// CacheHits counts queries answered from a resident cuboid (leaf
	// included) without aggregation.
	CacheHits int64
	// Coalesced counts queries that piggybacked on an identical
	// in-flight miss.
	Coalesced int64
	// Computes counts foreground aggregations performed (cache misses
	// that did work; background fills are counted separately).
	Computes int64
	// LeafAggregations / AncestorAggregations split Computes by source:
	// the leaf, pinned or streamed, vs a cached cuboid.
	LeafAggregations     int64
	AncestorAggregations int64
	// ColdScans counts aggregations that streamed a cold leaf source,
	// foreground and background alike; RowsScanned totals the rows they
	// read. Both stay zero over a resident leaf.
	ColdScans   int64
	RowsScanned int64
	// Admitted / Rejected / Evictions are cache admission-control
	// counters; EvictedBytes totals the evicted cuboids' footprint.
	Admitted     int64
	Rejected     int64
	Evictions    int64
	EvictedBytes int64
	// BackgroundFills counts cuboids computed by the background
	// materializer on the adaptive planner's behalf; BackgroundAdmitted
	// counts how many of those the cache retained.
	BackgroundFills    int64
	BackgroundAdmitted int64
	// Replans counts adaptive planning passes (query-count periodic and
	// commit-triggered).
	Replans int64
	// Canceled counts queries abandoned by context cancellation before an
	// answer was produced (at entry, while waiting on a coalesced flight,
	// or before becoming the flight leader).
	Canceled int64
	// ResidentBytes / ResidentCuboids describe the cache's current
	// occupancy (the pinned leaf is excluded). ResidentBytes ≤
	// BudgetBytes always.
	ResidentBytes   int64
	ResidentCuboids int
	// BudgetBytes is the configured cache budget.
	BudgetBytes int64
	// LeafBytes is the pinned leaf's footprint (not budgeted; zero when
	// the leaf is streamed).
	LeafBytes int64
	// Policy names the active admission policy ("lru" or "adaptive").
	Policy string
}

// Server answers group-by queries over one leaf source. Safe for
// concurrent use.
type Server struct {
	leaf  *Cuboid      // the pinned leaf; nil when it is streamed
	cold  ColdSource   // the streamed leaf; nil when it is pinned
	full  lattice.Mask // the leaf's group-by: every dimension
	cards []int        // per leaf column: code cardinality, for radix sizing
	cache *cache
	stats *statsTable

	mu       sync.Mutex
	inflight map[lattice.Mask]*flight

	scratch sync.Pool // *relation.Scratch, one per aggregating goroutine

	// opt is the active policy; bg the optional background executor; both
	// swap atomically (SetPolicy / Handoff).
	opt atomic.Pointer[PolicyOptions]
	bg  atomic.Pointer[Background]
	// planned is the last re-plan's winner set (CuboidStats.Planned).
	planned atomic.Pointer[map[lattice.Mask]bool]

	// replanTick counts foreground queries toward the periodic re-plan;
	// replanNeeded forces one at the next opportunity (policy switch,
	// commit handoff without an executor); planning serializes passes.
	replanTick   atomic.Int64
	replanNeeded atomic.Bool
	planning     atomic.Bool

	// retired marks the server superseded by a commit: background work
	// for it is dropped (the version stays queryable for pinned readers).
	retired atomic.Bool

	// testBeforeAdmit, when set, runs between a miss's aggregation and
	// its cache admission — the window the generation guard protects —
	// and, in Precompute, after each lattice level and before each
	// admission. Tests use it to interleave Reset/Invalidate/SetBudget
	// deterministically with an in-flight computation.
	testBeforeAdmit func()

	queries     atomic.Int64
	hits        atomic.Int64
	coalesced   atomic.Int64
	canceled    atomic.Int64
	leafAggs    atomic.Int64
	ancAggs     atomic.Int64
	coldScans   atomic.Int64
	rowsScanned atomic.Int64
	bgFills     atomic.Int64
	bgAdmitted  atomic.Int64
	replans     atomic.Int64
}

// flight is one in-progress cuboid computation; duplicate queriers wait
// on done and share the result, or the error that ended it.
type flight struct {
	done  chan struct{}
	cub   *Cuboid
	stats QueryStats
	err   error
}

// NewServer builds a server over a leaf cuboid with the default LRU
// policy. cards gives the code cardinality of each leaf column (used to
// size radix passes and the planner's size estimates); budgetBytes ≤ 0
// selects DefaultBudgetBytes. Use SetPolicy to switch to the adaptive
// policy.
func NewServer(leaf *Cuboid, cards []int, budgetBytes int64) *Server {
	return newServer(leaf, leaf.Mask, cards, budgetBytes)
}

func newServer(leaf *Cuboid, full lattice.Mask, cards []int, budgetBytes int64) *Server {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	s := &Server{
		leaf:     leaf,
		full:     full,
		cards:    append([]int(nil), cards...),
		cache:    newCache(budgetBytes),
		stats:    newStatsTable(),
		inflight: make(map[lattice.Mask]*flight),
	}
	opt := PolicyOptions{Policy: PolicyLRU}.withDefaults()
	s.opt.Store(&opt)
	s.scratch.New = func() any { return relation.NewScratch() }
	return s
}

// Leaf returns the pinned leaf cuboid (nil when the leaf is streamed).
func (s *Server) Leaf() *Cuboid { return s.leaf }

// Cards returns the code cardinality of every leaf column: every code of
// a cuboid this server answers is below its column's. The caller must not
// modify the result.
func (s *Server) Cards() []int { return s.cards }

// pinnedFor returns the resident leaf when q is its group-by — the one
// cuboid served without the cache. A streamed leaf pins nothing: its
// full-mask cuboid is computed and cached like any other.
func (s *Server) pinnedFor(q lattice.Mask) *Cuboid {
	if q != s.full {
		return nil
	}
	return s.leaf
}

// leafRows sizes the leaf for planning: cells when pinned, table rows
// when streamed.
func (s *Server) leafRows() int {
	if s.leaf != nil {
		return s.leaf.Rows()
	}
	return s.cold.Rows()
}

// SetBudget changes the cache byte budget, evicting as needed.
func (s *Server) SetBudget(budgetBytes int64) {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudgetBytes
	}
	s.cache.setBudget(budgetBytes)
}

// Reset drops every cached cuboid (the leaf stays). Benchmarks use it to
// measure the cold path.
func (s *Server) Reset() { s.cache.reset() }

// Invalidate drops one cached cuboid if resident.
func (s *Server) Invalidate(q lattice.Mask) { s.cache.remove(q) }

// SetPolicy installs the admission policy and optional background
// executor (nil keeps fills and re-plans synchronous: a re-plan then runs
// inline on the query that triggers it and materializes missing winners
// before returning — the deterministic mode tests and the adaptive-vs-LRU
// oracle use). Switching to the adaptive policy schedules an immediate
// re-plan; switching back to LRU stops planning but keeps the resident
// set. Safe to call while queries are in flight.
func (s *Server) SetPolicy(o PolicyOptions, bg *Background) {
	o = o.withDefaults()
	s.opt.Store(&o)
	s.bg.Store(bg)
	s.cache.setPolicy(o.Policy == PolicyAdaptive, o.Seed)
	if o.Policy == PolicyAdaptive {
		s.replanNeeded.Store(true)
	}
}

// Policy returns the active policy options.
func (s *Server) Policy() PolicyOptions { return *s.opt.Load() }

// Retire marks the server superseded by a newer version: queued and
// future background work for it is dropped. Pinned readers keep querying
// it; retirement only stops speculative cache work.
func (s *Server) Retire() { s.retired.Store(true) }

// Handoff carries the serving policy, background executor and workload
// model to the successor server and retires this one — the commit path
// calls it after warming the successor with the folded residents, so
// demand observed on version v keeps steering version v+1's plan, and a
// commit acts as a re-plan trigger (asynchronously when an executor is
// attached, at the successor's next query otherwise).
func (s *Server) Handoff(next *Server) {
	next.stats.adopt(s.stats.snapshot())
	opt := *s.opt.Load()
	bg := s.bg.Load()
	next.SetPolicy(opt, bg)
	s.Retire()
	if opt.Policy == PolicyAdaptive && bg != nil {
		bg.submitReplan(next)
	}
}

// Query returns the cuboid for group-by q (bit i = leaf column i) along
// with how it was served. The returned cuboid is immutable and remains
// valid after eviction.
func (s *Server) Query(q lattice.Mask) (*Cuboid, QueryStats, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with caller cancellation: the context is checked at
// entry, before this query becomes the singleflight leader for a miss,
// while waiting on a coalesced in-flight computation, and between the
// chunks of a cold scan — the one serving operation long enough to be
// worth tearing down mid-way, so an abandoned client stops burning disk
// reads. An in-memory derivation always runs to completion once started:
// it is short, and it serves every coalesced waiter and the cache.
//
// A leader cancelled mid-scan fails its flight, but only for itself: a
// coalesced waiter whose own context is still live re-enters the miss path
// (becoming or joining a fresh flight) instead of surfacing someone else's
// cancellation. Any other flight error is shared with every waiter.
func (s *Server) QueryCtx(ctx context.Context, q lattice.Mask) (*Cuboid, QueryStats, error) {
	if !q.SubsetOf(s.full) {
		return nil, QueryStats{}, fmt.Errorf("serve: mask %b is not a subset of the leaf %b", q, s.full)
	}
	if err := ctx.Err(); err != nil {
		s.canceled.Add(1)
		return nil, QueryStats{}, err
	}
	s.queries.Add(1)
	stats := QueryStats{Query: q, ServedFrom: q}
	if leaf := s.pinnedFor(q); leaf != nil {
		s.hits.Add(1)
		stats.CacheHit = true
		stats.ResultCells = leaf.Rows()
		return leaf, stats, nil
	}
	for {
		if cub, ok := s.cache.get(q); ok {
			s.hits.Add(1)
			stats.CacheHit = true
			stats.ResultCells = cub.Rows()
			s.stats.recordHit(q, cub.Rows(), cub.SizeBytes())
			s.maybeReplan()
			return cub, stats, nil
		}

		// Miss: coalesce with an identical in-flight computation, else
		// become the filler for this mask.
		s.mu.Lock()
		f, waiting := s.inflight[q]
		if !waiting {
			if s.cache.peek(q) {
				// A flight admitted q between the miss and the lock.
				s.mu.Unlock()
				continue
			}
			if err := ctx.Err(); err != nil {
				// Last check before committing to the derivation.
				s.mu.Unlock()
				s.canceled.Add(1)
				return nil, QueryStats{}, err
			}
			f = &flight{done: make(chan struct{})}
			s.inflight[q] = f
		}
		s.mu.Unlock()

		if !waiting {
			s.fly(ctx, q, f, false, 0)
			if f.err != nil {
				if ctx.Err() != nil {
					s.canceled.Add(1)
				}
				return nil, QueryStats{}, f.err
			}
			s.maybeReplan()
			return f.cub, f.stats, nil
		}

		select {
		case <-f.done:
		case <-ctx.Done():
			s.canceled.Add(1)
			return nil, QueryStats{}, ctx.Err()
		}
		if f.err != nil {
			if isContextErr(f.err) && ctx.Err() == nil {
				continue // the leader's cancellation, not ours
			}
			return nil, QueryStats{}, f.err
		}
		s.coalesced.Add(1)
		stats = f.stats
		stats.Coalesced = true
		// A coalesced query is demand evidence like any hit.
		s.stats.recordHit(q, f.cub.Rows(), f.cub.SizeBytes())
		s.maybeReplan()
		return f.cub, stats, nil
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// PanicError is what a coalesced query gets when the computation it
// waited on panicked: the leader's own call re-panics, and no waiter is
// left blocked on a flight that will never land.
type PanicError struct{ Value any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: the computation panicked: %v", e.Value)
}

// fly runs the computation behind a registered flight and publishes its
// outcome, also when the computation panics: the flight leaves the
// inflight map before waiters wake, so a waiter that retries after a
// failure never rejoins the dead flight.
func (s *Server) fly(ctx context.Context, q lattice.Mask, f *flight, background bool, planScore float64) {
	defer func() {
		v := recover()
		if v != nil {
			f.cub, f.err = nil, &PanicError{Value: v}
		}
		s.mu.Lock()
		delete(s.inflight, q)
		s.mu.Unlock()
		close(f.done)
		if v != nil {
			panic(v)
		}
	}()
	f.cub, f.stats, f.err = s.compute(ctx, q, background, planScore)
}

// project returns, for each attribute of q in ascending order, its column
// index within a cuboid of mask src (q ⊆ src) and its code cardinality
// (for radix sizing). cards is indexed by leaf column.
func project(cards []int, src, q lattice.Mask) (cols, qCards []int) {
	srcDims, qDims := src.Dims(), q.Dims()
	cols = make([]int, len(qDims))
	qCards = make([]int, len(qDims))
	col := 0
	for i, d := range qDims {
		for srcDims[col] != d {
			col++
		}
		cols[i] = col
		qCards[i] = cards[d]
	}
	return cols, qCards
}

// sources returns what a miss derives from: the resident cuboids, read
// without LRU promotion, and the pinned leaf.
func (s *Server) sources() []*Cuboid {
	srcs := s.cache.resident()
	if s.leaf != nil {
		srcs = append(srcs, s.leaf)
	}
	return srcs
}

// derive computes q from the cheapest of sources (cheapestSource), or by
// streaming the cold leaf when none covers q. st reports where the answer
// came from and what it cost; the caller does the counting (account).
func (s *Server) derive(ctx context.Context, q lattice.Mask, sources []*Cuboid, sc *relation.Scratch) (cub *Cuboid, st QueryStats, err error) {
	st = QueryStats{Query: q, ServedFrom: s.full}
	if src := s.cheapestSource(q, sources); src != nil {
		st.ServedFrom, st.CellsScanned = src.Mask, src.Rows()
		cols, cards := project(s.cards, src.Mask, q)
		cub = aggregateFrom(src, q, cols, cards, sc)
	} else if cub, err = s.scanCold(ctx, q, sc, &st); err != nil {
		return nil, QueryStats{}, err
	}
	st.ResultCells = cub.Rows()
	return cub, st, nil
}

// cheapestSource is the one source rule: it picks the source q is derived
// from most cheaply — its rows when q is a prefix of the source, so
// aggregateFrom skips the sort, its rows times q's radix passes otherwise;
// ties go to the lowest mask, so the choice is a pure function of the
// source set. Nil when no source is a superset of q.
func (s *Server) cheapestSource(q lattice.Mask, sources []*Cuboid) *Cuboid {
	_, qCards := project(s.cards, q, q)
	passes := relation.RadixPasses(qCards)
	var best *Cuboid
	bestCost := 0
	for _, src := range sources {
		if !q.SubsetOf(src.Mask) {
			continue
		}
		cost := src.Rows()
		if !q.PrefixOf(src.Mask) {
			cost *= passes
		}
		if best == nil || cost < bestCost || cost == bestCost && src.Mask < best.Mask {
			best, bestCost = src, cost
		}
	}
	return best
}

// fromLeaf reports whether a derivation read the leaf, pinned or streamed,
// rather than a cached cuboid (a streamed leaf's full-mask cuboid may be
// cached like any other).
func (s *Server) fromLeaf(st QueryStats) bool {
	return st.ColdScan || st.ServedFrom == s.full && s.leaf != nil
}

// account counts one derivation of q: the cold-scan counters first (Stats
// loads them after leafAggs, so a reader never sees a leaf aggregation
// without its cold scan), then a background fill, or a foreground miss
// split by source, into the counters and the stats table.
func (s *Server) account(q lattice.Mask, cub *Cuboid, st QueryStats, background bool) {
	if st.ColdScan {
		s.coldScans.Add(1)
		s.rowsScanned.Add(st.RowsScanned)
	}
	rows, size, cost := cub.Rows(), cub.SizeBytes(), st.deriveCost()
	switch {
	case background:
		s.bgFills.Add(1)
		s.stats.recordFill(q, rows, size, cost)
		return
	case s.fromLeaf(st):
		s.leafAggs.Add(1)
	default:
		s.ancAggs.Add(1)
	}
	s.stats.recordMiss(q, rows, size, cost)
}

// deriveCost is the work one derivation took, in the units the stats table
// and the admission score weigh against a cuboid's size: resident cells
// aggregated, or cold rows streamed.
func (st QueryStats) deriveCost() int { return st.CellsScanned + int(st.RowsScanned) }

// compute derives q and admits the result into the cache. Background
// fills (the adaptive planner's materializations) record into the stats
// table as fills — not demand — and admit with the planner's score instead
// of the admission score.
func (s *Server) compute(ctx context.Context, q lattice.Mask, background bool, planScore float64) (*Cuboid, QueryStats, error) {
	// Capture the cache generation before reading any resident state: if
	// a Reset or Invalidate lands while we aggregate, the admission below
	// is rejected instead of resurrecting a cuboid the invalidation was
	// meant to drop. The served answer itself stays valid — it was
	// aggregated from the immutable leaf or an immutable ancestor copy.
	gen := s.cache.generation()
	sc := s.scratch.Get().(*relation.Scratch)
	cub, stats, err := s.derive(ctx, q, s.sources(), sc)
	s.scratch.Put(sc)
	if err != nil {
		return nil, QueryStats{}, err
	}
	if !s.fromLeaf(stats) {
		s.cache.get(stats.ServedFrom) // the source was used: promote it
	}
	s.account(q, cub, stats, background)
	score := planScore
	if !background {
		score = admissionScore(s.stats.demand(q), stats.deriveCost(), cub.Rows(), cub.SizeBytes())
	}

	if s.testBeforeAdmit != nil {
		s.testBeforeAdmit()
	}

	stats.Admitted, stats.Evicted = s.cache.add(q, cub, gen, score)
	if background && stats.Admitted {
		s.bgAdmitted.Add(1)
	}
	return cub, stats, nil
}

// fill is one background materialization: compute q and admit it with the
// planner's score, through the same singleflight and generation machinery
// as a foreground miss, so a fill can never race an invalidation or a
// committing writer into an inconsistent resident set. Foreground queries
// arriving while the fill is in flight coalesce onto it. A fill for a
// mask that is already resident, already being computed, or belongs to a
// retired server is skipped; one whose cold scan fails leaves no trace.
func (s *Server) fill(q lattice.Mask, score float64) {
	if s.retired.Load() || s.pinnedFor(q) != nil || !q.SubsetOf(s.full) {
		return
	}
	if s.cache.peek(q) {
		return
	}
	s.mu.Lock()
	if _, ok := s.inflight[q]; ok {
		s.mu.Unlock()
		return
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[q] = f
	s.mu.Unlock()
	s.fly(context.Background(), q, f, true, score)
}

// maybeReplan advances the periodic re-plan counter on a foreground query
// and triggers a pass when due (or when one was forced by a policy switch
// or commit handoff).
func (s *Server) maybeReplan() {
	opt := s.opt.Load()
	if opt.Policy != PolicyAdaptive || s.retired.Load() {
		return
	}
	tick := s.replanTick.Add(1)
	if s.replanNeeded.CompareAndSwap(true, false) || tick%int64(opt.ReplanEvery) == 0 {
		if bg := s.bg.Load(); bg != nil {
			bg.submitReplan(s)
		} else {
			s.Replan()
		}
	}
}

// Replan runs one adaptive planning pass now: snapshot the stats table,
// run the greedy benefit-per-byte selection, install the retained-benefit
// scores on the cache, and materialize winners that are not resident —
// via the background executor when one is attached, synchronously
// otherwise. A no-op under LRU; concurrent calls collapse to one pass.
// The pass is deterministic given the stats snapshot and the seed.
func (s *Server) Replan() {
	opt := s.opt.Load()
	if opt.Policy != PolicyAdaptive {
		return
	}
	if !s.planning.CompareAndSwap(false, true) {
		return
	}
	defer s.planning.Store(false)
	s.replans.Add(1)

	res := planAdaptive(planInput{
		stats:    s.stats.snapshot(),
		leafMask: s.full,
		leafRows: s.leafRows(),
		cards:    s.cards,
		budget:   s.Budget(),
		seed:     opt.Seed,
	})
	s.cache.setScores(res.scores)
	planned := make(map[lattice.Mask]bool, len(res.winners))
	for _, w := range res.winners {
		planned[w] = true
	}
	s.planned.Store(&planned)

	var missing []fillReq
	for _, w := range res.winners {
		if !s.cache.peek(w) {
			missing = append(missing, fillReq{mask: w, score: res.scores[w]})
		}
	}
	if len(missing) == 0 {
		return
	}
	if bg := s.bg.Load(); bg != nil {
		bg.submitFills(s, missing)
		return
	}
	for _, f := range missing {
		s.fill(f.mask, f.score)
	}
}

// Resident returns the cached (non-leaf) cuboids in recency order, most
// recently used first. The cuboids are immutable; the commit path folds
// each one forward into the next snapshot's server.
func (s *Server) Resident() []*Cuboid { return s.cache.resident() }

// Warm pre-admits cuboids into the cache. cubs is in recency order, most
// recently used first (the order Resident returns); admission runs in
// reverse so the resulting LRU order matches. The snapshot-commit path
// seeds a new version's server with the previous version's folded
// residents so that commit does not cool the cache; admissions respect
// the byte budget like any other. Under the adaptive policy the carried
// residents are pinned above any admission score until the first re-plan
// rescores them (the commit handoff schedules that re-plan).
func (s *Server) Warm(cubs []*Cuboid) {
	for i := len(cubs) - 1; i >= 0; i-- {
		cub := cubs[i]
		if s.pinnedFor(cub.Mask) != nil {
			continue
		}
		s.cache.add(cub.Mask, cub, s.cache.generation(), infScore)
	}
}

// Precompute computes the cuboids of the given masks and admits them in
// benefit order — cells saved per query (leaf rows minus cuboid rows)
// normalized by footprint, descending, ties broken by ascending mask —
// until the byte budget is spent, and reports the masks whose cuboids
// were computed but not retained. Admission is therefore deterministic in
// the mask *set*, not the caller's order. Crash recovery uses it to
// rebuild the warm set recorded in the last commit marker. The
// computations record into the stats table as background fills, not
// demand; duplicate masks and the pinned leaf are ignored, and a mask
// whose derivation fails (a cold scan error) is reported as skipped.
//
// The computation is the paper's ASL in miniature (§3.3): one task per
// cuboid, top-down by lattice level, so each level derives by the one
// source rule from the pinned leaf, the cuboids resident at the start and
// those built at earlier levels; each level's tasks are
// demand-scheduled over GOMAXPROCS rank goroutines. Every admission
// carries the one cache generation read before the first derivation, so a
// Reset or Invalidate during the warm rejects the whole batch.
func (s *Server) Precompute(masks []lattice.Mask) (admitted int, skipped []lattice.Mask) {
	type pre struct {
		mask  lattice.Mask
		cub   *Cuboid
		st    QueryStats
		err   error
		score float64
	}
	seen := make(map[lattice.Mask]bool, len(masks))
	var todo []*pre // in the caller's order, for the skipped list
	for _, q := range masks {
		if s.pinnedFor(q) != nil || seen[q] || !q.SubsetOf(s.full) {
			continue
		}
		seen[q] = true
		if s.cache.peek(q) {
			admitted++
			continue
		}
		todo = append(todo, &pre{mask: q})
	}

	gen := s.cache.generation()
	sources := s.sources()
	order := slices.Clone(todo)
	slices.SortFunc(order, func(a, b *pre) int {
		if c := b.mask.Count() - a.mask.Count(); c != 0 {
			return c
		}
		return cmp.Compare(a.mask, b.mask)
	})
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].mask.Count() == order[lo].mask.Count() {
			hi++
		}
		level := order[lo:hi]
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(runtime.GOMAXPROCS(0), len(level)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := s.scratch.Get().(*relation.Scratch)
				defer s.scratch.Put(sc)
				for i := int(next.Add(1)) - 1; i < len(level); i = int(next.Add(1)) - 1 {
					p := level[i]
					p.cub, p.st, p.err = s.derive(context.Background(), p.mask, sources, sc)
				}
			}()
		}
		wg.Wait()
		for _, p := range level {
			if p.err != nil {
				continue
			}
			s.account(p.mask, p.cub, p.st, true)
			p.score = admissionScore(1, s.leafRows(), p.cub.Rows(), p.cub.SizeBytes())
			sources = append(sources, p.cub)
		}
		if s.testBeforeAdmit != nil {
			s.testBeforeAdmit()
		}
		lo = hi
	}

	built := make([]*pre, 0, len(todo))
	for _, p := range todo {
		if p.err != nil {
			skipped = append(skipped, p.mask)
		} else {
			built = append(built, p)
		}
	}
	slices.SortFunc(built, func(a, b *pre) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.mask, b.mask)
	})
	for _, p := range built {
		if s.testBeforeAdmit != nil {
			s.testBeforeAdmit()
		}
		if ok, _ := s.cache.add(p.mask, p.cub, gen, p.score); ok {
			admitted++
			s.bgAdmitted.Add(1)
		} else {
			skipped = append(skipped, p.mask)
		}
	}
	return admitted, skipped
}

// CuboidStats returns the per-cuboid stats table — every group-by shape
// the server has seen or filled, sorted by mask, annotated with current
// residency and the last plan's winner set. The CLI dumps these
// (icecube -stats); the adaptive planner consumes the same snapshot.
func (s *Server) CuboidStats() []CuboidStats {
	rows := s.stats.snapshot()
	resident := s.cache.residentSet()
	var planned map[lattice.Mask]bool
	if p := s.planned.Load(); p != nil {
		planned = *p
	}
	for i := range rows {
		rows[i].Resident = resident[rows[i].Mask]
		rows[i].Planned = planned[rows[i].Mask]
	}
	return rows
}

// Budget returns the configured cache byte budget.
func (s *Server) Budget() int64 {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return s.cache.budget
}

// Stats returns the cumulative serving metrics.
func (s *Server) Stats() Metrics {
	c := s.cache
	c.mu.Lock()
	m := Metrics{
		Admitted:        c.admitted,
		Rejected:        c.rejected,
		Evictions:       c.evictions,
		EvictedBytes:    c.evictedBytes,
		ResidentBytes:   c.bytes,
		ResidentCuboids: len(c.byMask),
		BudgetBytes:     c.budget,
	}
	c.mu.Unlock()
	m.Queries = s.queries.Load()
	m.CacheHits = s.hits.Load()
	m.Coalesced = s.coalesced.Load()
	m.Canceled = s.canceled.Load()
	m.LeafAggregations = s.leafAggs.Load()
	m.AncestorAggregations = s.ancAggs.Load()
	m.Computes = m.LeafAggregations + m.AncestorAggregations
	m.BackgroundFills = s.bgFills.Load()
	m.BackgroundAdmitted = s.bgAdmitted.Load()
	m.Replans = s.replans.Load()
	m.ColdScans = s.coldScans.Load()
	m.RowsScanned = s.rowsScanned.Load()
	if s.leaf != nil {
		m.LeafBytes = s.leaf.SizeBytes()
	}
	m.Policy = s.opt.Load().Policy.String()
	return m
}
