// Package results collects emitted cube cells into a comparable in-memory
// set. Tests use it to verify every parallel algorithm against the naive
// reference; the root package's Compute and ComputeOutOfCore keep their
// cubes in it, and the BPP and POL paths use it to merge partial cuboids
// computed on different processors.
//
// Each cuboid is one pair of columns, like the serving layer's: row-major
// dictionary codes (width = the mask's dimension count) and one aggregate
// state per row. Writes append to the cuboid's pending columns in commit
// order. The first read of a cuboid seals it: one stable radix sort of the
// pending tuples, then one pass that merges equal neighbours — so equal
// tuples merge in commit order — into exactly-sized sealed columns, which
// are never mutated afterwards and are handed to readers without a copy.
package results

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// Set is a concurrency-safe collection of cells keyed by (cuboid, values).
// It satisfies disk.CellSink structurally.
type Set struct {
	mu      sync.Mutex
	cuboids map[lattice.Mask]*cuboid
}

// cuboid holds one mask's cells: the sealed columns (distinct tuples in
// ascending order, immutable once set) and the cells written since the
// last seal, in commit order.
type cuboid struct {
	width      int
	keys       []uint32
	states     []agg.State
	pendKeys   []uint32
	pendStates []agg.State
}

// NewSet returns an empty cell set.
func NewSet() *Set {
	return &Set{cuboids: make(map[lattice.Mask]*cuboid)}
}

// WriteCell records a cell. A cell written twice merges its aggregate
// states (partial cuboids from different processors are disjoint in
// tuples, so Merge is exact). Every cell of a cuboid must carry as many
// codes as its first one (m.Count(), from every algorithm); WriteCell
// panics otherwise.
func (s *Set) WriteCell(m lattice.Mask, key []uint32, st agg.State) {
	if err := s.write(m, key, st); err != nil {
		panic(err)
	}
}

// write appends one cell to m's pending columns, or reports a key whose
// width differs from the cuboid's.
func (s *Set) write(m lattice.Mask, key []uint32, st agg.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cuboids[m]
	if c == nil {
		c = &cuboid{width: len(key)}
		s.cuboids[m] = c
	}
	if len(key) != c.width {
		return fmt.Errorf("results: cuboid %b holds %d codes per cell, got %d", m, c.width, len(key))
	}
	if len(c.pendStates) == cap(c.pendStates) {
		// Double: append's own growth falls to 1.25× for large slices,
		// which would copy each pending cell about four times.
		c.pendKeys = slices.Grow(c.pendKeys, len(c.pendKeys)+c.width)
		c.pendStates = slices.Grow(c.pendStates, len(c.pendStates)+1)
	}
	c.pendKeys = append(c.pendKeys, key...)
	c.pendStates = append(c.pendStates, st)
	return nil
}

// seal folds the pending cells into the sealed columns. sc supplies the
// sort scratch (nil allocates). Called with the set's lock held.
func (c *cuboid) seal(sc *relation.Scratch) {
	if len(c.pendStates) == 0 {
		return
	}
	w := c.width
	keys, states := c.pendKeys, c.pendStates
	if len(c.states) > 0 {
		// A write after a seal. The sealed cells were committed first, so
		// they go first; the sealed slices themselves stay untouched.
		keys = append(slices.Clip(c.keys), keys...)
		states = append(slices.Clip(c.states), states...)
	}
	c.keys, c.states = sortMerge(keys, states, w, sc)
	c.pendKeys, c.pendStates = nil, nil
}

// sortMerge returns the distinct tuples among the rows of keys (w codes
// each, one state per row in states) in ascending order, in exactly-sized
// columns; each tuple's state merges its rows' states in row order, since
// relation.GroupRows is stable.
func sortMerge(keys []uint32, states []agg.State, w int, sc *relation.Scratch) ([]uint32, []agg.State) {
	cards := sc.Ints(w)[:w]
	cols := sc.Ints(w)[:w]
	clear(cards)
	for i := range cols {
		cols[i] = i
	}
	for i := 0; i < len(keys); i += w {
		for j, v := range keys[i : i+w] {
			if int(v) >= cards[j] {
				cards[j] = int(v) + 1
			}
		}
	}
	g := relation.GroupRows(keys, w, len(states), cols, cards, false, sc)
	outStates := g.Merge(states)
	outKeys := g.Keys()
	g.Release(sc)
	sc.PutInts(cols)
	sc.PutInts(cards)
	return outKeys, outStates
}

// Seal sorts and merges every cuboid's pending cells, so that the set
// retains only its exactly-sized sealed columns.
func (s *Set) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealAll()
}

// sealAll seals every cuboid over one sort scratch. Called with the lock
// held.
func (s *Set) sealAll() {
	sc := relation.NewScratch()
	for _, c := range s.cuboids {
		c.seal(sc)
	}
}

// NumCells returns the total number of cells across all cuboids.
func (s *Set) NumCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealAll()
	n := 0
	for _, c := range s.cuboids {
		n += len(c.states)
	}
	return n
}

// NumCuboids returns the number of cuboids holding at least one cell.
func (s *Set) NumCuboids() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cuboids)
}

// CuboidColumns returns cuboid m in columnar row-major form: a flat
// []uint32 of width m.Count() per row plus one aggregate state per row,
// one row per distinct tuple, sorted in natural tuple order. The slices
// are the set's own sealed columns, shared with every other reader: the
// caller must not modify them. Later writes never do.
func (s *Set) CuboidColumns(m lattice.Mask) ([]uint32, []agg.State) {
	keys, states, _ := s.columns(m)
	return keys, states
}

// columns seals cuboid m and returns its columns and width.
func (s *Set) columns(m lattice.Mask) ([]uint32, []agg.State, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cuboids[m]
	if c == nil {
		return nil, nil, 0
	}
	c.seal(nil)
	return c.keys, c.states, c.width
}

// Each invokes fn for every cell in the set, cuboids in ascending mask
// order and each cuboid's cells in tuple order. key aliases the set's
// storage: fn must not modify it.
func (s *Set) Each(fn func(m lattice.Mask, key []uint32, st agg.State)) {
	for _, m := range s.Masks() {
		keys, states, w := s.columns(m)
		for i, st := range states {
			fn(m, keys[i*w:(i+1)*w], st)
		}
	}
}

// Get returns the state of one cell.
func (s *Set) Get(m lattice.Mask, key []uint32) (agg.State, bool) {
	keys, states, w := s.columns(m)
	if w != len(key) {
		return agg.State{}, false
	}
	i := sort.Search(len(states), func(i int) bool { return slices.Compare(keys[i*w:(i+1)*w], key) >= 0 })
	if i == len(states) || !slices.Equal(keys[i*w:(i+1)*w], key) {
		return agg.State{}, false
	}
	return states[i], true
}

// Masks returns the cuboids present, in ascending mask order.
func (s *Set) Masks() []lattice.Mask {
	s.mu.Lock()
	defer s.mu.Unlock()
	masks := make([]lattice.Mask, 0, len(s.cuboids))
	for m := range s.cuboids {
		masks = append(masks, m)
	}
	slices.Sort(masks)
	return masks
}

// Filter returns a new set holding only the cells satisfying cond, used
// when a low-threshold precomputation answers a higher-threshold query
// (§5.1).
func (s *Set) Filter(cond agg.Condition) *Set {
	out := NewSet()
	s.Each(func(m lattice.Mask, key []uint32, st agg.State) {
		if cond.Holds(st) {
			out.WriteCell(m, key, st)
		}
	})
	return out
}

const eps = 1e-9

func statesEqual(a, b agg.State) bool {
	if a.Count != b.Count {
		return false
	}
	if math.Abs(a.Sum-b.Sum) > eps*(1+math.Abs(a.Sum)) {
		return false
	}
	// Min/Max of empty states are ±Inf; compare with exact equality
	// semantics that treat equal infinities as equal.
	return (a.Min == b.Min || math.Abs(a.Min-b.Min) <= eps) &&
		(a.Max == b.Max || math.Abs(a.Max-b.Max) <= eps)
}

// Diff compares two sets and returns a human-readable description of the
// first few discrepancies, or "" if the sets are identical. Tests verify
// algorithms with it.
func (s *Set) Diff(o *Set) string {
	var msgs []string
	note := func(format string, args ...any) {
		if len(msgs) < 10 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	s.Each(func(m lattice.Mask, key []uint32, st agg.State) {
		ost, ok := o.Get(m, key)
		if !ok {
			note("cuboid %b: cell %v missing from other", m, key)
		} else if !statesEqual(st, ost) {
			note("cuboid %b: cell %v state %+v != %+v", m, key, st, ost)
		}
	})
	o.Each(func(m lattice.Mask, key []uint32, _ agg.State) {
		if _, ok := s.Get(m, key); !ok {
			note("cuboid %b: cell %v only in other", m, key)
		}
	})
	if len(msgs) == 0 {
		return ""
	}
	return fmt.Sprintf("%d+ differences: %v", len(msgs), msgs)
}
