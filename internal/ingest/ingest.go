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
// exactly; a deletion that touches a cell's MIN/MAX is re-derived from
// the raw row store at the leaf, and marks a resident cuboid dirty — the
// dirty cuboid is simply not carried into the new version's cache and is
// lazily re-derived from the new leaf on its next query.
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
	// arithmetic vs re-derived from the row store.
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

// hashKey folds a code tuple to a 64-bit FNV-1a bucket id. The row and
// pending indexes key their maps by this hash and verify the actual codes
// on every probe, so collisions cost a comparison, never correctness —
// and no per-row string key is ever allocated (the old index built a
// 4·width-byte string per probe; see the allocation regression test).
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

// appendKeyBytes renders key as little-endian bytes onto dst — the map
// key under which a commit nets its batch per cell.
func appendKeyBytes(dst []byte, key []uint32) []byte {
	for _, v := range key {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// rowStore is the raw tuple multiset backing exact re-derivation of
// non-retractable cells and validation of deletes. Rows are append-only;
// deletion tombstones them. byKey buckets the live rows of each leaf cell
// under hashKey, so re-deriving a cell costs O(cell) rather than
// O(store) and probing allocates nothing.
type rowStore struct {
	width     int
	keys      []uint32 // row-major codes, append-only
	meas      []float64
	live      []bool
	liveCount int
	byKey     map[uint64][]int32
	idScratch []int32
}

func (rs *rowStore) row(i int32) []uint32 {
	return rs.keys[int(i)*rs.width : (int(i)+1)*rs.width]
}

// add appends one live row.
func (rs *rowStore) add(key []uint32, meas float64) {
	id := int32(len(rs.meas))
	rs.keys = append(rs.keys, key...)
	rs.meas = append(rs.meas, meas)
	rs.live = append(rs.live, true)
	rs.liveCount++
	h := hashKey(key)
	rs.byKey[h] = append(rs.byKey[h], id)
}

// countMatching returns how many live rows carry exactly (key, meas).
func (rs *rowStore) countMatching(key []uint32, meas float64) int {
	n := 0
	for _, id := range rs.byKey[hashKey(key)] {
		if rs.meas[id] == meas && keyEqual(key, rs.row(id)) {
			n++
		}
	}
	return n
}

// remove tombstones one live row matching (key, meas), which must exist.
func (rs *rowStore) remove(key []uint32, meas float64) {
	h := hashKey(key)
	ids := rs.byKey[h]
	for i, id := range ids {
		if rs.meas[id] == meas && keyEqual(key, rs.row(id)) {
			rs.live[id] = false
			rs.liveCount--
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(rs.byKey, h)
			} else {
				rs.byKey[h] = ids
			}
			return
		}
	}
	panic("ingest: remove of a row the store does not hold")
}

// state re-derives the exact aggregate of one leaf cell from its live
// rows (the identity state when the cell is gone). Matching rows fold in
// ascending row order so replayed recoveries reproduce the original
// floating-point fold exactly.
func (rs *rowStore) state(key []uint32) agg.State {
	ids := rs.idScratch[:0]
	for _, id := range rs.byKey[hashKey(key)] {
		if keyEqual(key, rs.row(id)) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	st := agg.NewState()
	for _, id := range ids {
		st.Add(rs.meas[id])
	}
	rs.idScratch = ids[:0]
	return st
}

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

// op is one buffered mutation; its key lives in the cube's pendKeys
// arena at [off, off+width).
type op struct {
	del  bool
	meas float64
	off  int32
}

// Cube is the incremental-maintenance engine over one materialized leaf.
// One writer at a time may Append/Delete/Commit (calls are serialized
// internally); any number of readers may concurrently resolve views and
// query their servers.
type Cube struct {
	width  int
	budget int64 // 0 = serve.DefaultBudgetBytes

	mu       sync.Mutex // guards store, pending state, cards, snaps, log
	store    rowStore
	cards    []int
	pendKeys []uint32
	pending  []op
	// pendingNet tracks, per (key, measure), pending appends minus
	// pending deletes, so Delete can validate availability against
	// store ∪ pending without replaying the batch.
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
// serving default. The base state is published as version 1.
func New(leaf *serve.Cuboid, keys []uint32, meas []float64, cards []int, budgetBytes int64) *Cube {
	width := leaf.Width
	c := &Cube{
		width:  width,
		budget: budgetBytes,
		store: rowStore{
			width: width,
			byKey: make(map[uint64][]int32, leaf.Rows()),
		},
		cards:      append([]int(nil), cards...),
		pendingNet: newNetMap(width),
		taken:      newNetMap(width),
	}
	key := make([]uint32, width)
	for i := range meas {
		copy(key, keys[i*width:(i+1)*width])
		c.store.add(key, meas[i])
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
// cardinalities, raw rows) is written and synced as the log's first
// record, and from then on every accepted batch and commit is logged.
// The cube must be fresh — version 1 with no pending batch — so the log
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
	base := &wal.Record{
		Type:  wal.TypeBase,
		Width: c.width,
		Cards: c.cards,
		Keys:  c.store.keys,
		Meas:  c.store.meas,
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
	for i := range meas {
		off := int32(len(c.pendKeys))
		c.pendKeys = append(c.pendKeys, keys[i*c.width:(i+1)*c.width]...)
		c.pending = append(c.pending, op{del: del, meas: meas[i], off: off})
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
		avail := int32(c.store.countMatching(key, meas[i])) + c.pendingNet.get(key, meas[i]) - c.taken.get(key, meas[i])
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

// LiveRows returns a copy of the committed live tuples — row-major key
// codes (width columns per row) and parallel measures, in append order.
// Buffered uncommitted mutations are excluded. The segment-flush path
// streams these into the columnar cold tier.
func (c *Cube) LiveRows() (keys []uint32, meas []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.store.liveCount
	keys = make([]uint32, 0, n*c.width)
	meas = make([]float64, 0, n)
	for id := range c.store.meas {
		if !c.store.live[id] {
			continue
		}
		keys = append(keys, c.store.row(int32(id))...)
		meas = append(meas, c.store.meas[id])
	}
	return keys, meas
}

// Pending returns the buffered, uncommitted mutation count.
func (c *Cube) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

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

	// Net the batch into per-cell added/deleted aggregates, applying it
	// to the row store as we go (Delete validated availability, so the
	// store removes cannot fail).
	type cellDelta struct {
		key      []uint32 // aliases pendKeys, which is not written again before we return
		add, del agg.State
	}
	touched := make(map[string]*cellDelta, len(c.pending))
	order := make([]*cellDelta, 0, len(c.pending))
	var kbuf []byte
	appended, deleted := 0, 0
	cards := append([]int(nil), c.cards...)
	for _, o := range c.pending {
		key := c.pendKeys[o.off : int(o.off)+c.width]
		kbuf = appendKeyBytes(kbuf[:0], key)
		cd, ok := touched[string(kbuf)]
		if !ok {
			cd = &cellDelta{key: key, add: agg.NewState(), del: agg.NewState()}
			touched[string(kbuf)] = cd // one allocation per distinct cell
			order = append(order, cd)
		}
		if o.del {
			c.store.remove(key, o.meas)
			cd.del.Add(o.meas)
			deleted++
		} else {
			c.store.add(key, o.meas)
			cd.add.Add(o.meas)
			appended++
			for d, code := range key {
				if int(code) >= cards[d] {
					cards[d] = int(code) + 1
				}
			}
		}
	}
	c.pending = c.pending[:0]
	c.pendKeys = c.pendKeys[:0]
	c.pendingNet.reset()
	c.cards = cards

	// Leaf-level delta in ascending tuple order.
	slices.SortFunc(order, func(a, b *cellDelta) int { return slices.Compare(a.key, b.key) })
	delta := &serve.Delta{Width: c.width}
	for _, cd := range order {
		delta.Keys = append(delta.Keys, cd.key...)
		delta.Add = append(delta.Add, cd.add)
		delta.Del = append(delta.Del, cd.del)
	}

	snap := Snapshot{
		Version:  head.Version + 1,
		Rows:     int64(c.store.liveCount),
		Appended: appended,
		Deleted:  deleted,
	}

	newLeaf := head.Srv.Leaf()
	var folded []*serve.Cuboid
	if delta.Rows() > 0 {
		var stats serve.FoldStats
		var ok bool
		newLeaf, stats, ok = serve.FoldDelta(head.Srv.Leaf(), delta, c.store.state)
		if !ok {
			// Unreachable: the row store always re-derives exactly.
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
		for _, cub := range head.Srv.Resident() {
			if c.kill("cuboid-fold") {
				return Snapshot{}, errKilled
			}
			pd := delta.Project(cub.Mask.Dims())
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
