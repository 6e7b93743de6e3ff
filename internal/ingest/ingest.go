// Package ingest is the incremental-maintenance layer over the serving
// stack: an append/delete write path whose Commit folds each batch into
// the materialized leaf cuboid — and into every resident cuboid of the
// serving cache — by delta aggregation instead of recomputing the cube.
//
// Versioning follows the snapshot/commit model of table formats like
// Iceberg: every Commit publishes an immutable Snapshot (monotonic
// version, row count, leaf footprint) whose serving state is swapped in
// atomically. In-flight readers keep aggregating from the version they
// pinned — cuboids are immutable, so there is no torn-cube window — while
// new queries see the next version. Old versions stay queryable
// (time travel) until the cube is released.
//
// Aggregate maintenance uses agg.State.Retract: COUNT and SUM subtract
// exactly; a deletion that touches a cell's MIN/MAX is re-derived at the
// leaf from the cell's measures, and marks a resident cuboid dirty — the
// dirty cuboid is simply not carried into the new version's cache and is
// lazily re-derived from the new leaf on its next query. The head leaf is
// the write path's row index: its sorted cells locate a key, and a
// measure column aligned to it holds each cell's raw measures, the only
// per-row state the cube keeps.
//
// Durability is optional and layered under the same API: AttachWAL hooks
// a write-ahead log (internal/wal) so every accepted Append/Delete batch
// is logged and every Commit writes a marker behind an fsync barrier —
// when Commit returns nil on a durable cube, that version survives a
// crash and Recover rebuilds it (and every earlier version) from the log.
// If the log becomes unwritable, the cube degrades to read-only: queries
// keep serving every published version while writes fail fast with
// ErrDegraded.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/relation"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// MaxCode is the exclusive upper bound on dimension codes the write path
// accepts. It protects the radix kernels and the per-commit cardinality
// growth from garbage codes (a stray uint32 would otherwise inflate a
// dimension's cardinality to billions); real dictionaries stay far below
// it.
const MaxCode = 1 << 28

// Typed write-path errors, matchable with errors.Is.
var (
	// ErrShape reports a keys/measures length mismatch: Append and Delete
	// need exactly width codes per measure.
	ErrShape = errors.New("ingest: keys/measures shape mismatch")
	// ErrCodeRange reports a dimension code at or above MaxCode.
	ErrCodeRange = errors.New("ingest: dimension code out of range")
	// ErrNotLive reports a Delete of a row that is neither live at the
	// head version nor appended earlier in the same batch.
	ErrNotLive = errors.New("ingest: delete of a row that is not live")
	// ErrDegraded reports that the write-ahead log has failed permanently
	// and the cube is read-only: serving continues on every published
	// version, but no further write can be made durable, so none is
	// accepted.
	ErrDegraded = errors.New("ingest: write-ahead log unwritable; cube is read-only")
)

// errKilled is returned by Commit when the test kill hook fires — the
// crash-recovery oracle's stand-in for the process dying mid-commit.
var errKilled = errors.New("ingest: killed at test crash point")

// Snapshot describes one committed, immutable cube version.
type Snapshot struct {
	// Version is the monotonically increasing snapshot id; the snapshot
	// published by New (the base materialization) is version 1.
	Version uint64
	// Rows is the live tuple count at this version.
	Rows int64
	// LeafCells and LeafBytes describe the version's leaf cuboid.
	LeafCells int
	LeafBytes int64
	// Appended and Deleted count the tuples of the commit that produced
	// this version (both zero for the base snapshot and empty commits).
	Appended int
	Deleted  int
	// Folded and Dirty count the previous version's resident cuboids
	// that were carried forward by delta aggregation vs dropped for lazy
	// re-derivation because a deletion touched a MIN/MAX extreme.
	Folded int
	Dirty  int
	// Retracted and Recomputed count leaf cells maintained by state
	// arithmetic vs re-derived from the cell's measures.
	Retracted  int
	Recomputed int
	// CommitSeconds is the host wall-clock cost of the commit (0 for the
	// base snapshot).
	CommitSeconds float64
}

// View is one version's queryable state: its snapshot metadata and the
// serving server over its immutable leaf.
type View struct {
	Snapshot
	Srv *serve.Server
}

// hashKey folds a code tuple to a 64-bit FNV-1a bucket id. The pending
// index keys its map by this hash and verifies the actual codes on every
// probe, so collisions cost a comparison, never correctness — and no
// per-row string key is ever allocated (see the allocation regression
// test).
func hashKey(key []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range key {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// hashKeyMeas extends hashKey with the measure bits for (key, measure)
// identity maps.
func hashKeyMeas(key []uint32, meas float64) uint64 {
	h := hashKey(key)
	h ^= math.Float64bits(meas)
	h *= 1099511628211
	return h
}

// keyEqual reports a == b (equal length assumed).
func keyEqual(a, b []uint32) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// measCol is the head version's raw measures in CSR form, aligned to
// the head leaf: cell i's measures are meas[off[i]:off[i+1]], in
// ascending row order — base rows in row order, appends at the end, a
// delete removing the first equal measure. Re-deriving a cell folds its
// slice in that order, so recovery reproduces every fold bit for bit.
type measCol struct {
	off  []int32 // cells+1 offsets into meas
	meas []float64
}

// newMeasCol groups the rows leaf aggregates (keys row-major, column c's
// codes below cards[c]) by cell: one radix group-by, whose stable order
// keeps each cell's measures in row order, cut by the leaf's counts.
func newMeasCol(leaf *serve.Cuboid, keys []uint32, meas []float64, cards []int) measCol {
	perm := relation.SortRows(keys, leaf.Width, len(meas), cards, nil)
	col := measCol{off: make([]int32, 1, leaf.Rows()+1), meas: make([]float64, len(meas))}
	for i, r := range perm {
		col.meas[i] = meas[r]
	}
	for _, st := range leaf.States {
		col.off = append(col.off, col.off[len(col.off)-1]+int32(st.Count))
	}
	return col
}

func (mc *measCol) cells() int { return len(mc.off) - 1 }

func (mc *measCol) cell(i int) []float64 { return mc.meas[mc.off[i]:mc.off[i+1]] }

// netMap counts per-(key, measure) integers — pending appends minus
// deletes, and Delete's intra-batch claims — without allocating string
// keys: entries live in flat arenas indexed by hash buckets, with the
// stored key and measure verified on every probe.
type netMap struct {
	width   int
	buckets map[uint64][]int32
	keys    []uint32 // entry e's key at [e*width, (e+1)*width)
	meas    []float64
	net     []int32
}

func newNetMap(width int) *netMap {
	return &netMap{width: width, buckets: make(map[uint64][]int32)}
}

// find returns the entry index for (key, meas), or -1.
func (nm *netMap) find(key []uint32, meas float64) int32 {
	for _, e := range nm.buckets[hashKeyMeas(key, meas)] {
		if nm.meas[e] == meas && keyEqual(key, nm.keys[int(e)*nm.width:(int(e)+1)*nm.width]) {
			return e
		}
	}
	return -1
}

// get returns the current net count for (key, meas), zero if absent.
func (nm *netMap) get(key []uint32, meas float64) int32 {
	if e := nm.find(key, meas); e >= 0 {
		return nm.net[e]
	}
	return 0
}

// bump adds delta to (key, meas)'s net count, creating the entry when
// absent, and returns the new value.
func (nm *netMap) bump(key []uint32, meas float64, delta int32) int32 {
	if e := nm.find(key, meas); e >= 0 {
		nm.net[e] += delta
		return nm.net[e]
	}
	e := int32(len(nm.net))
	nm.keys = append(nm.keys, key...)
	nm.meas = append(nm.meas, meas)
	nm.net = append(nm.net, delta)
	h := hashKeyMeas(key, meas)
	nm.buckets[h] = append(nm.buckets[h], e)
	return delta
}

// reset empties the map, keeping arena capacity.
func (nm *netMap) reset() {
	nm.keys = nm.keys[:0]
	nm.meas = nm.meas[:0]
	nm.net = nm.net[:0]
	clear(nm.buckets)
}

// op is one buffered mutation; the key of pending[i] is row i of the
// cube's pendKeys arena.
type op struct {
	del  bool
	meas float64
}

// Cube is the incremental-maintenance engine over one materialized leaf.
// One writer at a time may Append/Delete/Commit (calls are serialized
// internally); any number of readers may concurrently resolve views and
// query their servers.
type Cube struct {
	width  int
	budget int64 // 0 = serve.DefaultBudgetBytes

	mu       sync.Mutex // guards col, pending state, cards, snaps, log
	col      measCol    // the current view's measures, swapped with it at publish
	cards    []int
	pendKeys []uint32
	pending  []op
	// pendingNet tracks, per (key, measure), pending appends minus
	// pending deletes, so Delete can validate availability against
	// head ∪ pending without replaying the batch.
	pendingNet *netMap
	taken      *netMap // Delete's intra-batch claim scratch

	log      *wal.Log
	degraded error

	// testCommitKill, when set, is consulted at named stages inside
	// Commit; returning true aborts the commit mid-flight — the crash-
	// recovery oracle's stand-in for the process dying between the WAL
	// barrier, the leaf fold, the per-cuboid folds and the publish.
	testCommitKill func(stage string) bool

	snaps   []*View
	current atomic.Pointer[View]
}

// New builds a cube over a freshly materialized leaf. leaf must be the
// exact aggregation of rows (keys row-major with width columns, one
// measure per row) — the §5.1 precomputation provides both. cards gives
// each key column's code cardinality; budgetBytes ≤ 0 selects the
// serving default. The base state is published as version 1. Of the
// rows, the cube keeps only the measures, grouped by leaf cell.
func New(leaf *serve.Cuboid, keys []uint32, meas []float64, cards []int, budgetBytes int64) *Cube {
	width := leaf.Width
	c := &Cube{
		width:      width,
		budget:     budgetBytes,
		col:        newMeasCol(leaf, keys, meas, cards),
		cards:      append([]int(nil), cards...),
		pendingNet: newNetMap(width),
		taken:      newNetMap(width),
	}
	if n := c.col.off[len(c.col.off)-1]; int(n) != len(meas) {
		panic(fmt.Sprintf("ingest: the leaf counts %d rows, not %d", n, len(meas)))
	}
	v := &View{
		Snapshot: Snapshot{
			Version:   1,
			Rows:      int64(len(meas)),
			LeafCells: leaf.Rows(),
			LeafBytes: leaf.SizeBytes(),
		},
		Srv: serve.NewServer(leaf, cards, budgetBytes),
	}
	c.snaps = append(c.snaps, v)
	c.current.Store(v)
	return c
}

// Current returns the newest committed view.
func (c *Cube) Current() *View { return c.current.Load() }

// At returns the view of one committed version, if it is still retained.
func (c *Cube) At(version uint64) (*View, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].Version >= version })
	if i < len(c.snaps) && c.snaps[i].Version == version {
		return c.snaps[i], true
	}
	return nil, false
}

// Snapshots returns the metadata of every retained version, ascending.
func (c *Cube) Snapshots() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Snapshot, len(c.snaps))
	for i, v := range c.snaps {
		out[i] = v.Snapshot
	}
	return out
}

// Views returns every retained view, ascending by version. The metrics
// aggregation above sums serving counters across them.
func (c *Cube) Views() []*View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*View(nil), c.snaps...)
}

// Retain drops all but the newest keep retained versions (minimum 1 —
// the current version is never dropped) and returns how many were
// released. Dropped versions stop resolving through At; views already in
// readers' hands stay valid, their memory is reclaimed when the readers
// let go. This is the snapshot-expiration knob long-running writers use
// to bound retention. Retention is an in-memory policy, not a logged
// event: recovery from a WAL rebuilds the full committed history.
func (c *Cube) Retain(keep int) int {
	if keep < 1 {
		keep = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.snaps) <= keep {
		return 0
	}
	dropped := len(c.snaps) - keep
	c.snaps = append(c.snaps[:0:0], c.snaps[dropped:]...)
	return dropped
}

// SetBudget changes the serving-cache byte budget for the current and
// all future versions.
func (c *Cube) SetBudget(bytes int64) {
	c.mu.Lock()
	c.budget = bytes
	c.mu.Unlock()
	c.Current().Srv.SetBudget(bytes)
}

// SetServePolicy installs the cache admission policy (and optional
// background executor) on the current version's server. Commit handoffs
// propagate both to every future version, so one call configures the
// whole chain. A nil bg keeps re-plans and fills synchronous (the
// deterministic mode).
func (c *Cube) SetServePolicy(o serve.PolicyOptions, bg *serve.Background) {
	c.Current().Srv.SetPolicy(o, bg)
}

// Degraded returns the failure that made the cube read-only, or nil.
func (c *Cube) Degraded() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// degrade records the WAL failure and returns the typed error writers
// see from now on. Called with c.mu held.
func (c *Cube) degrade(cause error) error {
	if c.degraded == nil {
		c.degraded = cause
	}
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// writable is the degraded-mode gate. Called with c.mu held.
func (c *Cube) writable() error {
	if c.degraded != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, c.degraded)
	}
	return nil
}

// AttachWAL makes the cube durable: the full base state (shape,
// cardinalities, raw rows in leaf order) is written and synced as the
// log's first record, and from then on every accepted batch and commit
// is logged. The cube must be fresh — version 1 with no pending batch — so the log
// is a complete history; Recover rebuilds cubes from such logs.
func (c *Cube) AttachWAL(lg *wal.Log) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil {
		return errors.New("ingest: a WAL is already attached")
	}
	if len(c.pending) > 0 || c.current.Load().Version != 1 {
		return errors.New("ingest: AttachWAL needs a fresh cube (version 1, no pending batch)")
	}
	keys, meas := c.liveRows()
	base := &wal.Record{
		Type:  wal.TypeBase,
		Width: c.width,
		Cards: c.cards,
		Keys:  keys,
		Meas:  meas,
	}
	if err := lg.AppendSync(base); err != nil {
		return fmt.Errorf("ingest: writing base record: %w", err)
	}
	c.log = lg
	return nil
}

// attachRecovered installs the continued log on a cube rebuilt by
// Recover (the base record is already in the log).
func (c *Cube) attachRecovered(lg *wal.Log) {
	c.mu.Lock()
	c.log = lg
	c.mu.Unlock()
}

// LogAux appends an opaque payload to the WAL for the layer above (the
// Materialized write path logs dictionary extensions this way, before
// the batch that uses them). Aux records ride the next Commit's fsync
// barrier. On a cube without a WAL it is a no-op.
func (c *Cube) LogAux(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writable(); err != nil {
		return err
	}
	if c.log == nil {
		return nil
	}
	if err := c.log.Append(&wal.Record{Type: wal.TypeAux, Aux: payload}); err != nil {
		return c.degrade(err)
	}
	return nil
}

// Close releases the write-ahead log, if any. The cube stays queryable.
func (c *Cube) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// validate checks a batch's shape and code range.
func (c *Cube) validate(keys []uint32, meas []float64) error {
	if len(keys) != len(meas)*c.width {
		return fmt.Errorf("%w: %d key codes for %d rows of width %d", ErrShape, len(keys), len(meas), c.width)
	}
	for i, code := range keys {
		if code >= MaxCode {
			return fmt.Errorf("%w: code %d at position %d (max %d)", ErrCodeRange, code, i, MaxCode-1)
		}
	}
	return nil
}

// buffer records an accepted batch in the pending arena. Called with
// c.mu held, after validation and WAL logging.
func (c *Cube) buffer(del bool, keys []uint32, meas []float64) {
	var sign int32 = 1
	if del {
		sign = -1
	}
	c.pendKeys = append(c.pendKeys, keys...)
	for i := range meas {
		c.pending = append(c.pending, op{del: del, meas: meas[i]})
		c.pendingNet.bump(keys[i*c.width:(i+1)*c.width], meas[i], sign)
	}
}

// Append buffers rows (row-major keys, one measure each) into the
// pending batch. Codes may exceed the current cardinalities (the new
// version's cardinality grows at Commit) but not MaxCode. On a durable
// cube the batch is logged before it is accepted; a cube whose log has
// failed rejects the batch with ErrDegraded.
func (c *Cube) Append(keys []uint32, meas []float64) error {
	if err := c.validate(keys, meas); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writable(); err != nil {
		return err
	}
	if c.log != nil {
		rec := &wal.Record{Type: wal.TypeAppend, Width: c.width, Keys: keys, Meas: meas}
		if err := c.log.Append(rec); err != nil {
			return c.degrade(err)
		}
	}
	c.buffer(false, keys, meas)
	return nil
}

// Delete buffers row deletions into the pending batch. Every deleted row
// must be live at the head version or appended earlier in the same
// batch; a row with no match fails with ErrNotLive and leaves the batch
// untouched.
func (c *Cube) Delete(keys []uint32, meas []float64) error {
	if err := c.validate(keys, meas); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writable(); err != nil {
		return err
	}
	c.taken.reset()
	for i := range meas {
		key := keys[i*c.width : (i+1)*c.width]
		avail := int32(c.countLive(key, meas[i])) + c.pendingNet.get(key, meas[i]) - c.taken.get(key, meas[i])
		if avail <= 0 {
			return fmt.Errorf("%w: key %v measure %g", ErrNotLive, key, meas[i])
		}
		c.taken.bump(key, meas[i], 1)
	}
	if c.log != nil {
		rec := &wal.Record{Type: wal.TypeDelete, Width: c.width, Keys: keys, Meas: meas}
		if err := c.log.Append(rec); err != nil {
			return c.degrade(err)
		}
	}
	c.buffer(true, keys, meas)
	return nil
}

// countLive returns how many rows of the head version carry exactly
// (key, meas): a binary search of the head leaf, then a scan of that
// cell's measures. Called with c.mu held.
func (c *Cube) countLive(key []uint32, meas float64) int {
	leaf := c.current.Load().Srv.Leaf()
	i := sort.Search(leaf.Rows(), func(i int) bool { return slices.Compare(leaf.Row(i), key) >= 0 })
	if i == leaf.Rows() || !slices.Equal(leaf.Row(i), key) {
		return 0
	}
	n := 0
	for _, m := range c.col.cell(i) {
		if m == meas {
			n++
		}
	}
	return n
}

// LiveRows returns a copy of the committed live tuples — row-major key
// codes (width columns per row) and parallel measures — in leaf order:
// ascending key tuple, and within one key in row order (base rows first,
// then appends in commit order). Buffered uncommitted mutations are
// excluded. The segment-flush path streams these into the columnar cold
// tier.
func (c *Cube) LiveRows() (keys []uint32, meas []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveRows()
}

// liveRows is LiveRows' body. Called with c.mu held.
func (c *Cube) liveRows() (keys []uint32, meas []float64) {
	leaf := c.current.Load().Srv.Leaf()
	keys = make([]uint32, 0, len(c.col.meas)*c.width)
	for i := 0; i < c.col.cells(); i++ {
		for range c.col.cell(i) {
			keys = append(keys, leaf.Row(i)...)
		}
	}
	return keys, append([]float64(nil), c.col.meas...)
}

// Pending returns the buffered, uncommitted mutation count.
func (c *Cube) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// pendKey returns the key of pending op i.
func (c *Cube) pendKey(i int) []uint32 { return c.pendKeys[i*c.width : (i+1)*c.width] }

// kill consults the test crash hook. Called with c.mu held.
func (c *Cube) kill(stage string) bool {
	return c.testCommitKill != nil && c.testCommitKill(stage)
}

// Commit folds the pending batch into the leaf and every resident cuboid
// of the head version, and publishes the result as a new immutable
// version. An empty batch still advances the version (the new view
// shares the old leaf). Readers of older versions are unaffected.
//
// On a durable cube the commit marker is written and fsynced before any
// in-memory state changes: a nil return means the version is durable,
// and a crash at any point — before, during or after the folds — recovers
// to a whole committed version, never a partial one.
func (c *Cube) Commit() (Snapshot, error) {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writable(); err != nil {
		return Snapshot{}, err
	}
	return c.commitLocked(start, true)
}

// commitLocked is Commit's body; logIt is false when Recover replays
// commits that are already in the log. Called with c.mu held.
func (c *Cube) commitLocked(start time.Time, logIt bool) (Snapshot, error) {
	head := c.current.Load()

	if logIt && c.log != nil {
		resident := head.Srv.Resident()
		rec := &wal.Record{Type: wal.TypeCommit, Version: head.Version + 1, Resident: make([]uint32, 0, len(resident))}
		for _, cub := range resident {
			rec.Resident = append(rec.Resident, uint32(cub.Mask))
		}
		// The durability barrier: marker + everything before it reach
		// stable storage before any in-memory state changes. On failure
		// the pending batch is left intact and the cube degrades.
		if err := c.log.AppendSync(rec); err != nil {
			return Snapshot{}, c.degrade(err)
		}
	}
	if c.kill("logged") {
		return Snapshot{}, errKilled
	}

	// Every code is below the grown cardinalities, because a deleted row
	// is live or appended in this batch.
	cards := append([]int(nil), c.cards...)
	appended := 0
	for i, o := range c.pending {
		if o.del {
			continue
		}
		appended++
		for d, code := range c.pendKey(i) {
			if int(code) >= cards[d] {
				cards[d] = int(code) + 1
			}
		}
	}
	delta, col, spans := c.applyBatch(head.Srv.Leaf(), cards)
	snap := Snapshot{
		Version:  head.Version + 1,
		Rows:     int64(len(col.meas)),
		Appended: appended,
		Deleted:  len(c.pending) - appended,
	}

	newLeaf := head.Srv.Leaf()
	var folded []*serve.Cuboid
	if delta.Rows() > 0 {
		// A non-retractable cell folds its new measure slice; FoldDelta
		// asks for cells in ascending key order, so j only moves forward.
		j := 0
		recompute := func(key []uint32) agg.State {
			for !slices.Equal(delta.Row(j), key) {
				j++
			}
			st := agg.NewState()
			for _, m := range col.meas[spans[2*j]:spans[2*j+1]] {
				st.Add(m)
			}
			return st
		}
		var stats serve.FoldStats
		var ok bool
		newLeaf, stats, ok = serve.FoldDelta(head.Srv.Leaf(), delta, recompute)
		if !ok || newLeaf.Rows() != col.cells() {
			// Unreachable: the measure column always re-derives exactly.
			return Snapshot{}, fmt.Errorf("ingest: leaf fold failed")
		}
		snap.Retracted, snap.Recomputed = stats.Retracted, stats.Recomputed
		if c.kill("leaf-folded") {
			return Snapshot{}, errKilled
		}

		// Carry the head's resident cuboids forward: fold the projected
		// delta into each; a non-retractable projection leaves the
		// cuboid dirty — it is dropped here and lazily re-derived from
		// the new leaf when next queried.
		sc := relation.NewScratch()
		for _, cub := range head.Srv.Resident() {
			if c.kill("cuboid-fold") {
				return Snapshot{}, errKilled
			}
			pd := delta.Project(cub.Mask.Dims(), cards, sc)
			out, _, ok := serve.FoldDelta(cub, pd, nil)
			if !ok {
				snap.Dirty++
				continue
			}
			snap.Folded++
			folded = append(folded, out)
		}
	} else {
		// Empty commit: the new version shares the leaf and keeps every
		// resident cuboid.
		folded = head.Srv.Resident()
		snap.Folded = len(folded)
	}
	snap.LeafCells = newLeaf.Rows()
	snap.LeafBytes = newLeaf.SizeBytes()

	if c.kill("pre-publish") {
		return Snapshot{}, errKilled
	}
	c.col, c.cards = col, cards
	c.pending = c.pending[:0]
	c.pendKeys = c.pendKeys[:0]
	c.pendingNet.reset()
	srv := serve.NewServer(newLeaf, c.cards, c.budget)
	srv.Warm(folded)
	// Carry the serving policy and workload model forward and retire the
	// predecessor's background work; under the adaptive policy the commit
	// doubles as a re-plan trigger, so the successor's resident set is
	// re-justified against post-commit sizes.
	head.Srv.Handoff(srv)
	snap.CommitSeconds = time.Since(start).Seconds()
	v := &View{Snapshot: snap, Srv: srv}
	c.snaps = append(c.snaps, v)
	c.current.Store(v)
	return snap, nil
}

// applyBatch groups the pending batch by key with the radix kernel (the
// sort is stable, so each key's ops keep their batch order) and walks the
// groups against leaf's cells in one merge. It returns the leaf-level
// delta and the measure column of the leaf that folding the delta into
// leaf yields: an untouched cell copies its measures; a touched one then
// applies its ops in batch order, an append going to the end and a
// delete removing the first equal measure; a cell left empty is dropped,
// as FoldDelta drops it. Delta row j's new measures are
// col.meas[spans[2j]:spans[2j+1]]. Called with c.mu held.
func (c *Cube) applyBatch(leaf *serve.Cuboid, cards []int) (delta *serve.Delta, col measCol, spans []int) {
	if len(c.pending) == 0 {
		return &serve.Delta{Width: c.width}, c.col, nil // the new version shares the leaf, so the column too
	}
	perm := relation.SortRows(c.pendKeys, c.width, len(c.pending), cards, nil)
	n := leaf.Rows()
	delta = &serve.Delta{Width: c.width}
	col = measCol{off: make([]int32, 1, n+len(perm)+1), meas: make([]float64, 0, len(c.col.meas)+len(perm))}
	i := 0
	copyTo := func(end int) { // head cells [i, end) are untouched: copy them in bulk
		shift := int32(len(col.meas)) - c.col.off[i]
		col.meas = append(col.meas, c.col.meas[c.col.off[i]:c.col.off[end]]...)
		for _, o := range c.col.off[i+1 : end+1] {
			col.off = append(col.off, o+shift)
		}
		i = end
	}
	for r := 0; r < len(perm); {
		key := c.pendKey(int(perm[r]))
		copyTo(i + sort.Search(n-i, func(k int) bool { return slices.Compare(leaf.Row(i+k), key) >= 0 }))
		start := len(col.meas)
		if i < n && slices.Equal(leaf.Row(i), key) {
			col.meas = append(col.meas, c.col.cell(i)...)
			i++
		}
		add, del := agg.NewState(), agg.NewState()
		for ; r < len(perm) && slices.Equal(c.pendKey(int(perm[r])), key); r++ {
			o := c.pending[perm[r]]
			if !o.del {
				add.Add(o.meas)
				col.meas = append(col.meas, o.meas)
				continue
			}
			del.Add(o.meas)
			k := slices.Index(col.meas[start:], o.meas)
			if k < 0 {
				panic("ingest: delete of a measure the cell does not hold") // Delete validated it
			}
			col.meas = slices.Delete(col.meas, start+k, start+k+1)
		}
		delta.Keys = append(delta.Keys, key...)
		delta.Add = append(delta.Add, add)
		delta.Del = append(delta.Del, del)
		spans = append(spans, start, len(col.meas))
		if len(col.meas) > start {
			col.off = append(col.off, int32(len(col.meas)))
		}
	}
	copyTo(n)
	return delta, col, spans
}
