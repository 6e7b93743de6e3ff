// Package ahtable implements AHT's cell store (§3.5.2): a hash table whose
// bucket index is built by concatenating a fixed number of low-order bits
// of each cube attribute's value (the paper's "naive MOD hash"). Because
// each attribute owns a bit field inside the index, *collapsing* the table
// onto a subset of the attributes — what AHT does when subset affinity
// fires — just merges the buckets that agree on the surviving bit fields.
//
// The total index width is fixed up front (the paper sizes the table to the
// number of input tuples), so high-dimensional or sparse cubes squeeze each
// attribute to a few bits and collisions explode — the failure mode Figs
// 4.4 and 4.6 show. Collisions are counted so the cost model charges them.
package ahtable

import (
	"math/bits"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
)

// entry is one cell: its full key (values of the table's attributes, in
// attribute order) and aggregate state. Colliding cells chain in insertion
// order through next, which holds the successor's entries index plus one
// (0 terminates), so a chain costs no allocation beyond the shared entries
// arena.
type entry struct {
	key   []uint32
	state agg.State
	next  int32
}

// Table is a bit-packed-index hash table over a set of cube attribute
// positions.
type Table struct {
	// pos lists the cube positions (ascending) the table's keys cover.
	pos []int
	// bits[i] is the index-bit budget of pos[i]; shifts are implied by
	// concatenation order.
	bitsPer []int
	// mixed selects the §4.9.2 improvement: a multiplicative mixing hash
	// over the whole key instead of the naive MOD bit concatenation.
	mixed bool
	// heads[b] is the bucket's first entries index plus one; 0 means the
	// bucket is empty, so a fresh directory needs no fill pass. All cells
	// live back to back in entries — one amortized arena instead of one
	// chain slice per bucket, which dominated the allocation profile.
	heads   []int32
	entries []entry
	length  int
	ctr     *cost.Counters
	// keyArena holds every inserted key's copy back to back; per-cell key
	// allocations dominated the profile. Blocks are append-only (the table
	// never deletes), so carved key slices stay valid when a block fills
	// and a fresh one replaces it.
	keyArena []uint32
}

// PlanBits assigns index bits to each attribute: log2(cardinality) each,
// then shaved (largest first) until the total fits budgetBits. This is the
// paper's scheme of shrinking per-attribute bits when the cardinality
// product exceeds the table size.
func PlanBits(cards []int, budgetBits int) []int {
	b := make([]int, len(cards))
	total := 0
	for i, c := range cards {
		b[i] = bits.Len(uint(c - 1))
		if b[i] == 0 {
			b[i] = 1
		}
		total += b[i]
	}
	for total > budgetBits {
		// Shave one bit off the currently widest field.
		widest := 0
		for i := range b {
			if b[i] > b[widest] {
				widest = i
			}
		}
		if b[widest] == 0 {
			break
		}
		b[widest]--
		total--
	}
	return b
}

// New builds an empty table over the given cube positions with the given
// per-position bit plan and the paper's naive MOD hash.
func New(pos []int, bitsPer []int, ctr *cost.Counters) *Table {
	return NewWithHash(pos, bitsPer, false, ctr)
}

// NewWithHash builds a table selecting the hash function: mixed=false is
// the paper's naive MOD (per-attribute low bits concatenated); mixed=true
// is the §4.9.2 "more sophisticated hash function" improvement — a
// Fibonacci-style multiplicative mix of the whole key into the same index
// width.
func NewWithHash(pos []int, bitsPer []int, mixed bool, ctr *cost.Counters) *Table {
	total := 0
	for _, b := range bitsPer {
		total += b
	}
	return &Table{
		pos:     append([]int(nil), pos...),
		bitsPer: append([]int(nil), bitsPer...),
		mixed:   mixed,
		heads:   make([]int32, 1<<uint(total)),
		ctr:     ctr,
	}
}

// keyArenaBlock sizes the key arena; a block holds ~1k cells of a
// 4-attribute cube.
const keyArenaBlock = 4096

// copyKey carves a copy of key out of the table's arena.
func (t *Table) copyKey(key []uint32) []uint32 {
	if cap(t.keyArena)-len(t.keyArena) < len(key) {
		size := keyArenaBlock
		if len(key) > size {
			size = len(key)
		}
		t.keyArena = make([]uint32, 0, size)
	}
	off := len(t.keyArena)
	t.keyArena = append(t.keyArena, key...)
	return t.keyArena[off : off+len(key) : off+len(key)]
}

// Len returns the number of cells.
func (t *Table) Len() int { return t.length }

// index computes the bucket of a key: naive MOD concatenates each
// attribute's low bits; the mixed variant folds every element through a
// multiplicative mix and masks to the same width.
func (t *Table) index(key []uint32) uint32 {
	if t.mixed {
		var h uint64 = 0x9E3779B97F4A7C15
		for _, v := range key {
			h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
			h ^= h >> 29
		}
		return uint32(h) & uint32(len(t.heads)-1)
	}
	var idx uint32
	for i, b := range t.bitsPer {
		idx = idx<<uint(b) | (key[i] & (1<<uint(b) - 1))
	}
	return idx
}

// locate finds the entry for key in bucket b, charging a hash probe plus
// one collision per extra chain link inspected. It returns the matching
// entries index (or -1) and the chain's last entries index (or -1 for an
// empty bucket) so a missing cell can be appended in insertion order.
func (t *Table) locate(b uint32, key []uint32) (found, last int) {
	t.ctr.HashOps++
	last = -1
	first := true
	for e := t.heads[b]; e != 0; e = t.entries[e-1].next {
		if !first {
			t.ctr.Collisions++
		}
		first = false
		if equalKey(t.entries[e-1].key, key) {
			return int(e - 1), last
		}
		last = int(e - 1)
	}
	if !first {
		t.ctr.Collisions++
	}
	return -1, last
}

// link appends a fresh entry for key to bucket b's chain, after the chain's
// current last entry (-1 for an empty bucket).
func (t *Table) link(b uint32, last int, key []uint32, st agg.State) {
	t.entries = append(t.entries, entry{key: t.copyKey(key), state: st})
	idx := int32(len(t.entries))
	if last < 0 {
		t.heads[b] = idx
	} else {
		t.entries[last].next = idx
	}
	t.length++
}

func equalKey(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Add folds one measure into the cell for key, creating it if absent; it
// reports whether a new cell was created. The key is copied on insert.
func (t *Table) Add(key []uint32, measure float64) bool {
	b := t.index(key)
	i, last := t.locate(b, key)
	if i >= 0 {
		t.entries[i].state.Add(measure)
		return false
	}
	st := agg.NewState()
	st.Add(measure)
	t.link(b, last, key, st)
	return true
}

// MergeState folds a whole aggregate state into the cell for key.
func (t *Table) MergeState(key []uint32, st agg.State) bool {
	b := t.index(key)
	i, last := t.locate(b, key)
	if i >= 0 {
		t.entries[i].state.Merge(st)
		return false
	}
	ns := agg.NewState()
	ns.Merge(st)
	t.link(b, last, key, ns)
	return true
}

// Get returns the state for key.
func (t *Table) Get(key []uint32) (agg.State, bool) {
	b := t.index(key)
	if i, _ := t.locate(b, key); i >= 0 {
		return t.entries[i].state, true
	}
	return agg.State{}, false
}

// Scan visits every cell in unspecified (bucket) order; the callback must
// not retain key.
func (t *Table) Scan(fn func(key []uint32, st agg.State) bool) {
	for _, head := range t.heads {
		for e := head; e != 0; e = t.entries[e-1].next {
			if !fn(t.entries[e-1].key, t.entries[e-1].state) {
				return
			}
		}
	}
}

// Collapse builds the table for a subset of this table's positions by
// merging buckets: every cell's key is projected onto the surviving
// positions and re-inserted under the narrower index (§3.5.2's bucket
// collapsing, with chains re-aggregated). The receiving table keeps the
// same per-attribute bit plan restricted to the survivors.
func (t *Table) Collapse(subPos []int) *Table {
	keep := make([]int, 0, len(subPos)) // indices into t.pos
	j := 0
	for _, p := range subPos {
		for j < len(t.pos) && t.pos[j] != p {
			j++
		}
		if j == len(t.pos) {
			panic("ahtable: Collapse positions must be a subset in order")
		}
		keep = append(keep, j)
	}
	bitsPer := make([]int, len(keep))
	for i, k := range keep {
		bitsPer[i] = t.bitsPer[k]
	}
	nt := NewWithHash(subPos, bitsPer, t.mixed, t.ctr)
	key := make([]uint32, len(keep))
	t.Scan(func(full []uint32, st agg.State) bool {
		for i, k := range keep {
			key[i] = full[k]
		}
		nt.MergeState(key, st)
		return true
	})
	return nt
}

// SizeBytes estimates the table's memory footprint: the bucket directory
// plus per-cell keys and states (§4.1's accounting: |R| indices plus cells).
func (t *Table) SizeBytes() int64 {
	total := int64(len(t.heads)) * 8
	t.Scan(func(key []uint32, _ agg.State) bool {
		total += int64(4*len(key)) + 32
		return true
	})
	return total
}

// MaxChain returns the longest bucket chain, a direct collision metric.
func (t *Table) MaxChain() int {
	max := 0
	for _, head := range t.heads {
		n := 0
		for e := head; e != 0; e = t.entries[e-1].next {
			n++
		}
		if n > max {
			max = n
		}
	}
	return max
}
