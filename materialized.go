package icebergcube

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"icebergcube/internal/ingest"
	"icebergcube/internal/relation"
	"icebergcube/internal/serve"
)

// Materialized is the §5.1 precomputation: the finest cuboid (all cube
// dimensions) materialized once at a low threshold, from which any
// group-by over those dimensions with an equal-or-higher threshold is
// answered by aggregation — no re-scan of the raw data. On top of the
// paper's plan sits a lattice-aware serving layer: every query is
// rewritten to aggregate from the smallest already-resident ancestor
// cuboid (the leaf is only the worst case), and computed cuboids are
// retained in a byte-budgeted LRU cache so repeated and nearby query
// shapes amortize to near-lookup cost.
//
// Unlike the paper's compute-once plan, the cube is maintainable: Append
// and Delete batch row mutations into a pending delta, and Commit folds
// the delta into the leaf and every resident cuboid by delta aggregation
// (agg.State.Retract), publishing an immutable versioned Snapshot.
// Readers are never blocked and never see a torn cube: queries resolve
// the current version once and serve from its immutable state, and
// AnswerAt pins any retained version explicitly (time travel).
//
// Safe for concurrent queries; Append/Delete/Commit may run concurrently
// with queries (writes are serialized internally).
type Materialized struct {
	schema // the materialized dimensions, in cube order
	// dicts holds the dataset dictionary of each materialized dimension,
	// nil for synthetic data; the dataset itself is not kept.
	dicts []*relation.Encoder
	cube  *ingest.Cube

	// ext extends the dataset's dictionary with values first seen by
	// Append: per materialized position, codes ≥ ext[p].base decode
	// through ext[p].values. Guarded by extMu; the base code space is
	// immutable and read without locking.
	extMu sync.RWMutex
	ext   []extDim

	// bgExec is the adaptive policy's background materializer when
	// SetCachePolicy asked for one; Close releases it. Guarded by polMu.
	polMu  sync.Mutex
	bgExec *serve.Background
}

// extDim is one dimension's dictionary extension for appended values.
type extDim struct {
	base   int // codes < base belong to the dataset's own dictionary
	codes  map[string]uint32
	values []string
}

// Snapshot describes one committed, immutable cube version.
type Snapshot struct {
	// Version is the monotonically increasing snapshot id; Materialize
	// publishes version 1.
	Version uint64
	// Rows is the live tuple count at this version.
	Rows int64
	// Cells and Bytes describe this version's leaf cuboid.
	Cells int
	Bytes int64
	// Appended and Deleted count the tuples of the commit that produced
	// this version.
	Appended int
	Deleted  int
	// FoldedCuboids and DirtyCuboids count the resident cuboids carried
	// into this version by delta aggregation vs dropped for lazy
	// re-derivation (a deletion touched their MIN/MAX).
	FoldedCuboids int
	DirtyCuboids  int
	// RetractedCells and RecomputedCells split the leaf maintenance work
	// by mechanism: exact state arithmetic vs re-derivation from rows.
	RetractedCells  int
	RecomputedCells int
	// CommitSeconds is the host wall-clock cost of the commit.
	CommitSeconds float64
}

func publicSnapshot(s ingest.Snapshot) Snapshot {
	return Snapshot{
		Version:         s.Version,
		Rows:            s.Rows,
		Cells:           s.LeafCells,
		Bytes:           s.LeafBytes,
		Appended:        s.Appended,
		Deleted:         s.Deleted,
		FoldedCuboids:   s.Folded,
		DirtyCuboids:    s.Dirty,
		RetractedCells:  s.Retracted,
		RecomputedCells: s.Recomputed,
		CommitSeconds:   s.CommitSeconds,
	}
}

// ServeStats reports how one Answer was served, on either tier — which
// resident cuboid the rewrite picked, whether it was a cache hit, and how
// much work the miss cost.
type ServeStats struct {
	// ServedFrom names the attributes of the cuboid the answer was
	// aggregated from (the query's own attributes on a cache hit; all cube
	// dimensions when the leaf had to be rescanned or streamed).
	ServedFrom []string
	// CacheHit reports the cuboid was already resident — no aggregation.
	CacheHit bool
	// Coalesced reports this query waited on an identical concurrent miss
	// instead of computing its own copy.
	Coalesced bool
	// ColdScan reports the segment store was streamed (ColdCube only, when
	// no resident ancestor covered the query); RowsScanned counts the cold
	// rows read (0 unless ColdScan).
	ColdScan    bool
	RowsScanned int64
	// CellsScanned is the number of resident cells aggregated (0 on a hit
	// or a cold scan).
	CellsScanned int
	// Admitted reports the computed cuboid was retained in the cache.
	Admitted bool
	// Version is the snapshot the answer was served at (0 on a ColdCube).
	Version uint64
}

// CacheMetrics are the serving layer's cumulative counters, for either
// tier. On a Materialized cube traffic counters accumulate across
// snapshots (a commit swaps the serving state but does not reset
// observability); occupancy fields describe the current version's cache.
type CacheMetrics struct {
	// Queries, CacheHits and Coalesced count Answer traffic: total,
	// answered from a resident cuboid, and piggybacked on a concurrent
	// identical miss.
	Queries   int64
	CacheHits int64
	Coalesced int64
	// Canceled counts queries abandoned by context cancellation before an
	// answer was produced.
	Canceled int64
	// LeafAggregations and AncestorAggregations split the misses by
	// source: full leaf rescans vs aggregations from a smaller cached
	// ancestor.
	LeafAggregations     int64
	AncestorAggregations int64
	// ColdScans counts aggregations that streamed the segment store,
	// RowsScanned the rows they read, and IO their measured read-side
	// cost. All zero on a Materialized cube, whose leaf is resident.
	ColdScans   int64
	RowsScanned int64
	IO          SegmentIOStats
	// Evictions, ResidentBytes, ResidentCuboids and BudgetBytes describe
	// the byte-budgeted cuboid cache (the pinned leaf is excluded and
	// never evicted). ResidentBytes never exceeds BudgetBytes.
	Evictions       int64
	ResidentBytes   int64
	ResidentCuboids int
	BudgetBytes     int64
	// BackgroundFills and BackgroundAdmitted count cuboids the adaptive
	// policy materialized off the query path and how many the cache
	// retained; Replans counts its planning passes. All zero under LRU.
	BackgroundFills    int64
	BackgroundAdmitted int64
	Replans            int64
	// Policy names the current snapshot's admission policy ("lru" or
	// "adaptive").
	Policy string
}

// CachePolicy selects the serving cache's admission policy.
type CachePolicy string

const (
	// CacheLRU is the default recency policy: admit every computed
	// cuboid, evict least-recently-used.
	CacheLRU CachePolicy = "lru"
	// CacheAdaptive is the workload-adaptive policy: per-cuboid demand
	// stats drive a periodic greedy benefit-per-byte plan, planned
	// cuboids are materialized in the background, and eviction removes
	// the lowest retained benefit per byte.
	CacheAdaptive CachePolicy = "adaptive"
)

// CachePolicyConfig configures SetCachePolicy.
type CachePolicyConfig struct {
	// Policy selects LRU or adaptive admission (empty = LRU).
	Policy CachePolicy
	// Seed drives the adaptive planner's deterministic tie-breaks
	// (0 = 1). Two caches configured with the same seed and fed the same
	// query sequence make identical decisions.
	Seed int64
	// ReplanEvery re-plans after this many queries (≤ 0 = the serving
	// default, 64). Commits always trigger a re-plan regardless.
	ReplanEvery int
	// Background attaches a background materializer: re-plans and fills
	// run one after another on its own goroutine, so planned cuboids are
	// computed off the query path. false keeps them synchronous: they run
	// inline on the query that triggers them — fully deterministic, the
	// mode the adaptive-vs-LRU oracle uses.
	Background bool
}

// SetCachePolicy switches the serving cache's admission policy for the
// current and, via commit handoff, all future snapshots. Answers are
// byte-identical under either policy — the policy only decides which
// cuboids stay resident, i.e. how fast queries are served. Switching
// releases any previous background machinery.
func (m *Materialized) SetCachePolicy(cfg CachePolicyConfig) error {
	var p serve.Policy
	switch cfg.Policy {
	case CacheLRU, "":
		p = serve.PolicyLRU
	case CacheAdaptive:
		p = serve.PolicyAdaptive
	default:
		return fmt.Errorf("icebergcube: unknown cache policy %q", cfg.Policy)
	}
	m.polMu.Lock()
	defer m.polMu.Unlock()
	m.releaseBackgroundLocked()
	var bg *serve.Background
	if p == serve.PolicyAdaptive && cfg.Background {
		m.bgExec = serve.NewBackground()
		bg = m.bgExec
	}
	m.cube.SetServePolicy(serve.PolicyOptions{
		Policy:      p,
		Seed:        cfg.Seed,
		ReplanEvery: cfg.ReplanEvery,
	}, bg)
	return nil
}

// WaitBackground blocks until the adaptive policy's background queue is
// drained (a no-op under LRU or synchronous adaptive mode). Tests and the
// CLI stats dump use it to observe a quiescent cache.
func (m *Materialized) WaitBackground() {
	m.polMu.Lock()
	bg := m.bgExec
	m.polMu.Unlock()
	if bg != nil {
		bg.Wait()
	}
}

// releaseBackgroundLocked stops the background executor. Caller holds
// polMu.
func (m *Materialized) releaseBackgroundLocked() {
	if m.bgExec != nil {
		m.bgExec.Close()
		m.bgExec = nil
	}
}

// CuboidStat is one group-by shape's serving history: observed traffic,
// measured size and derive cost, and its standing with the adaptive
// planner. Shapes are reported for the current snapshot's server (the
// stats table is carried across commits).
type CuboidStat struct {
	// Attrs names the shape's group-by attributes (empty = the ALL
	// cuboid).
	Attrs []string
	// Hits, Misses and BackgroundFills count queries served while
	// resident, queries that had to aggregate, and background
	// materializations.
	Hits, Misses, BackgroundFills int64
	// Cells and Bytes are the cuboid's measured size (zero until first
	// computed); DeriveCells the ancestor cells scanned at its last
	// derivation.
	Cells       int
	Bytes       int64
	DeriveCells int
	// Resident reports current cache residency; Planned whether the last
	// adaptive re-plan selected the shape as a benefit-per-byte winner.
	Resident, Planned bool
}

// CuboidStats returns the current snapshot's per-cuboid serving stats,
// sorted by lattice mask. The CLI's -stats flag dumps these.
func (m *Materialized) CuboidStats() []CuboidStat {
	rows := m.cube.Current().Srv.CuboidStats()
	out := make([]CuboidStat, len(rows))
	for i, r := range rows {
		out[i] = CuboidStat{
			Attrs:           m.maskAttrs(r.Mask),
			Hits:            r.Hits,
			Misses:          r.Misses,
			BackgroundFills: r.BackgroundFills,
			Cells:           r.Rows,
			Bytes:           r.Bytes,
			DeriveCells:     r.DeriveCells,
			Resident:        r.Resident,
			Planned:         r.Planned,
		}
	}
	return out
}

// Materialize precomputes the finest cuboid over dims (nil = all data-set
// dimensions): one radix group-by of the rows, projected onto dims. The
// cuboid is kept at minimum support 1 — exactly as the paper's §5.1 plan
// does — because a filtered leaf would undercount coarser group-bys
// (cells below the floor still contribute to their ancestors'
// aggregates). The result is published as snapshot version 1. The cube
// keeps the dictionaries of dims, not ds, so the caller may drop ds.
// workers no longer affects the build; it is kept for source
// compatibility.
func Materialize(ds *Dataset, dims []string, workers int) (*Materialized, error) {
	idx, err := ds.resolveDims(dims)
	if err != nil {
		return nil, err
	}
	// The raw rows, projected onto the materialized dimensions, are both
	// the leaf's input and the source of the write path's measure column:
	// exact re-derivation of non-retractable cells and delete validation.
	n := ds.rel.Len()
	rowKeys := make([]uint32, 0, n*len(idx))
	meas := make([]float64, n)
	for row := 0; row < n; row++ {
		for _, d := range idx {
			rowKeys = append(rowKeys, ds.rel.Value(d, row))
		}
		meas[row] = ds.rel.Measure(row)
	}
	cards := make([]int, len(idx))
	for i, d := range idx {
		cards[i] = ds.rel.Card(d)
	}
	m := newMaterialized(ds, idx)
	m.cube = ingest.New(serve.LeafFromRows(len(idx), rowKeys, meas, cards), rowKeys, meas, cards, 0)
	return m, nil
}

// newMaterialized builds the naming and dictionary-extension state of a
// cube over dataset columns idx; the caller attaches the ingest cube.
func newMaterialized(ds *Dataset, idx []int) *Materialized {
	m := &Materialized{ext: make([]extDim, len(idx))}
	attrs := make([]string, len(idx))
	for i, d := range idx {
		attrs[i] = ds.rel.Name(d)
		m.ext[i] = extDim{base: ds.rel.Card(d), codes: make(map[string]uint32)}
		if ds.dict != nil {
			m.dicts = append(m.dicts, ds.dict.Encoders[d])
		}
	}
	var decode func(p int, code uint32) string
	if m.dicts != nil {
		decode = m.decodeValue
	}
	m.schema = newSchema(attrs, "materialized dimension", decode)
	return m
}

// SetCacheBudget resizes the serving cache's byte budget (≤ 0 restores
// the default) for the current and all future snapshots, evicting
// least-recently-used cuboids until the resident set fits. The leaf is
// pinned outside the budget.
func (m *Materialized) SetCacheBudget(bytes int64) { m.cube.SetBudget(bytes) }

// ResetCache drops every cached cuboid of the current snapshot (the leaf
// stays resident).
func (m *Materialized) ResetCache() { m.cube.Current().Srv.Reset() }

// CacheMetrics returns the serving layer's cumulative counters, summed
// across snapshots (see the type's doc).
func (m *Materialized) CacheMetrics() CacheMetrics {
	var out CacheMetrics
	for _, v := range m.cube.Views() {
		out.add(v.Srv.Stats())
	}
	return out
}

// add folds one server's counters into c: traffic accumulates, occupancy
// is overwritten — so after folding a cube's versions in ascending order,
// occupancy describes the newest.
func (c *CacheMetrics) add(s serve.Metrics) {
	c.Queries += s.Queries
	c.CacheHits += s.CacheHits
	c.Coalesced += s.Coalesced
	c.Canceled += s.Canceled
	c.LeafAggregations += s.LeafAggregations
	c.AncestorAggregations += s.AncestorAggregations
	c.ColdScans += s.ColdScans
	c.RowsScanned += s.RowsScanned
	c.Evictions += s.Evictions
	c.BackgroundFills += s.BackgroundFills
	c.BackgroundAdmitted += s.BackgroundAdmitted
	c.Replans += s.Replans
	c.ResidentBytes = s.ResidentBytes
	c.ResidentCuboids = s.ResidentCuboids
	c.BudgetBytes = s.BudgetBytes
	c.Policy = s.Policy
}

// RetainSnapshots drops all but the newest keep committed versions
// (minimum 1) and returns how many were released — the snapshot-
// expiration knob for long-running writers. Dropped versions stop
// resolving through AnswerAt.
func (m *Materialized) RetainSnapshots(keep int) int { return m.cube.Retain(keep) }

// Version returns the current snapshot version.
func (m *Materialized) Version() uint64 { return m.cube.Current().Version }

// Snapshots returns the metadata of every retained version, ascending.
func (m *Materialized) Snapshots() []Snapshot {
	snaps := m.cube.Snapshots()
	out := make([]Snapshot, len(snaps))
	for i, s := range snaps {
		out[i] = publicSnapshot(s)
	}
	return out
}

// Append batches rows into the pending delta: one string value per
// materialized dimension plus a measure per row, exactly like FromRows.
// Values never seen before extend the dictionary (for synthetic data
// sets, values must be the decimal code strings Answer returns). Nothing
// is visible to queries until Commit.
func (m *Materialized) Append(rows [][]string, measures []float64) error {
	keys, added, err := m.encodeRows(rows, measures, true)
	if err != nil {
		return err
	}
	// On a durable cube, new dictionary entries must be in the log before
	// the batch that uses their codes, so recovery can decode them.
	for _, e := range added {
		if err := m.cube.LogAux(encodeDictExt(e.pos, e.code, e.val)); err != nil {
			return err
		}
	}
	return m.cube.Append(keys, measures)
}

// Delete batches row deletions into the pending delta. Every row must
// match a live (not yet deleted) tuple — same dimension values, same
// measure — at the current version or appended earlier in this batch;
// otherwise Delete fails and leaves the batch untouched. Nothing is
// visible to queries until Commit.
func (m *Materialized) Delete(rows [][]string, measures []float64) error {
	keys, _, err := m.encodeRows(rows, measures, false)
	if err != nil {
		return err
	}
	return m.cube.Delete(keys, measures)
}

// Commit folds the pending Append/Delete batch into the leaf and every
// resident cuboid, and publishes the result as a new immutable snapshot.
// In-flight readers keep the version they started on; queries issued
// after Commit returns see the new one. An empty batch still advances
// the version.
func (m *Materialized) Commit() (Snapshot, error) {
	s, err := m.cube.Commit()
	if err != nil {
		return Snapshot{}, err
	}
	return publicSnapshot(s), nil
}

// dictExt records one dictionary extension made while encoding a batch.
type dictExt struct {
	pos  int
	code uint32
	val  string
}

// encodeRows dictionary-encodes string rows for the write path. extend
// assigns fresh codes to unseen values (Append); without it an unseen
// value is an error (Delete — the row cannot be live). The returned
// extensions are the entries this batch added, in assignment order.
func (m *Materialized) encodeRows(rows [][]string, measures []float64, extend bool) ([]uint32, []dictExt, error) {
	if len(rows) != len(measures) {
		return nil, nil, fmt.Errorf("icebergcube: %d rows but %d measures", len(rows), len(measures))
	}
	keys := make([]uint32, 0, len(rows)*len(m.attrs))
	var added []dictExt
	for i, row := range rows {
		if len(row) != len(m.attrs) {
			return nil, nil, fmt.Errorf("icebergcube: row %d has %d values, want %d", i, len(row), len(m.attrs))
		}
		for p, v := range row {
			code, fresh, err := m.encodeValue(p, v, extend)
			if err != nil {
				return nil, nil, err
			}
			if fresh {
				added = append(added, dictExt{pos: p, code: code, val: v})
			}
			keys = append(keys, code)
		}
	}
	return keys, added, nil
}

// encodeValue maps one dimension value to its code, consulting the
// dataset dictionary first, then the extension layer. fresh reports the
// code was assigned by this call.
func (m *Materialized) encodeValue(p int, v string, extend bool) (code uint32, fresh bool, err error) {
	if m.dicts != nil {
		if c, ok := m.dicts[p].Lookup(v); ok {
			return c, false, nil
		}
		m.extMu.Lock()
		defer m.extMu.Unlock()
		e := &m.ext[p]
		if c, ok := e.codes[v]; ok {
			return c, false, nil
		}
		if !extend {
			return 0, false, fmt.Errorf("icebergcube: unknown value %q for dimension %q", v, m.attrs[p])
		}
		c := uint32(e.base + len(e.values))
		e.codes[v] = c
		e.values = append(e.values, v)
		return c, true, nil
	}
	// Synthetic data sets have no dictionary: values are the canonical
	// decimal code strings Answer produces.
	n, perr := strconv.ParseUint(v, 10, 32)
	if perr != nil || strconv.FormatUint(n, 10) != v {
		return 0, false, fmt.Errorf("icebergcube: synthetic dimension %q needs a decimal code value, got %q", m.attrs[p], v)
	}
	return uint32(n), false, nil
}

// decodeValue renders one materialized dimension's code: the dataset
// dictionary for base codes, the extension layer for appended values.
// Only a cube over a dictionary decodes; a synthetic cube's codes are
// their own values.
func (m *Materialized) decodeValue(p int, code uint32) string {
	if int(code) < m.ext[p].base {
		return m.dicts[p].Decode(code)
	}
	m.extMu.RLock()
	defer m.extMu.RUnlock()
	return m.ext[p].values[int(code)-m.ext[p].base]
}

// Answer computes one iceberg group-by from the materialized cuboid at
// the current snapshot: SELECT groupBy..., aggregates HAVING COUNT(*) >=
// minSupport, for any threshold — the minsup-1 leaf loses nothing.
// groupBy must be a duplicate-free subset of the materialized dimensions.
// Cells come back in ascending value-tuple order, the same order
// Result.Cuboid uses.
func (m *Materialized) Answer(groupBy []string, minSupport int64) ([]Cell, error) {
	cells, _, err := m.AnswerStats(groupBy, minSupport)
	return cells, err
}

// AnswerStats is Answer plus serving observability: which resident cuboid
// answered, whether it was a cache hit, and how many cells were scanned.
func (m *Materialized) AnswerStats(groupBy []string, minSupport int64) ([]Cell, ServeStats, error) {
	v := m.cube.Current()
	return m.answer(v.Srv, v.Version, groupBy, minSupport)
}

// AnswerEach streams the qualifying cells of one group-by to yield, one
// at a time in ascending value-tuple order, without materializing the
// []Cell slice — the network front-end uses it to chunk large cuboids
// straight onto the wire. Cancelling ctx stops the query before it starts
// (or blocks on) a cuboid derivation. A non-nil error from yield aborts
// the iteration and is returned verbatim. The returned stats are the same
// as AnswerStats.
func (m *Materialized) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(Cell) error) (ServeStats, error) {
	v := m.cube.Current()
	return m.answerEach(ctx, v.Srv, v.Version, groupBy, minSupport, yield)
}

// AnswerColumns answers one group-by at the current snapshot without
// decoding it: the qualifying rows' codes and states plus the lookup that
// renders them — the form the HTTP edge encodes from. Cancelling ctx has
// AnswerEach's effect.
func (m *Materialized) AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*Columns, error) {
	v := m.cube.Current()
	return m.columns(ctx, v.Srv, v.Version, groupBy, minSupport)
}

// AnswerAt is Answer pinned to a committed snapshot version — the
// time-travel read path. The answer is exactly what Answer returned (or
// would have returned) while that version was current.
func (m *Materialized) AnswerAt(version uint64, groupBy []string, minSupport int64) ([]Cell, error) {
	cells, _, err := m.AnswerStatsAt(version, groupBy, minSupport)
	return cells, err
}

// AnswerStatsAt is AnswerAt plus serving observability.
func (m *Materialized) AnswerStatsAt(version uint64, groupBy []string, minSupport int64) ([]Cell, ServeStats, error) {
	v, ok := m.cube.At(version)
	if !ok {
		return nil, ServeStats{}, fmt.Errorf("icebergcube: unknown snapshot version %d", version)
	}
	return m.answer(v.Srv, v.Version, groupBy, minSupport)
}

// invalidate drops one group-by from the current snapshot's serving
// cache; benchmarks use it to measure the miss path repeatedly.
func (m *Materialized) invalidate(groupBy []string) error {
	_, mask, err := m.resolveGroupBy(groupBy)
	if err != nil {
		return err
	}
	m.cube.Current().Srv.Invalidate(mask)
	return nil
}

// NumCells returns the current snapshot's leaf cell count.
func (m *Materialized) NumCells() int { return m.cube.Current().Srv.Leaf().Rows() }

// Attrs returns the materialized dimension names in cube order — the
// same contract as ColdCube.Attrs.
func (m *Materialized) Attrs() []string { return append([]string(nil), m.attrs...) }
