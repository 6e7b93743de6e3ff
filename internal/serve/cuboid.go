package serve

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// Cuboid is one resident group-by in serving form: row-major dictionary
// codes plus one aggregate state per row, sorted in natural tuple order.
// Cuboids are immutable after construction, so readers never lock — the
// cache may drop a cuboid while a query is still aggregating from it.
type Cuboid struct {
	// Mask identifies the group-by, with bit i meaning "materialized
	// dimension i" (positions are relative to the server's leaf, not to
	// the underlying relation).
	Mask lattice.Mask
	// Width is the number of key columns, Mask.Count(). Zero for the
	// "all" cuboid, whose single row has an empty key.
	Width int
	// Keys holds Rows()×Width codes row-major, rows in ascending tuple
	// order.
	Keys []uint32
	// States holds one aggregate per row, parallel to Keys.
	States []agg.State
}

// Rows returns the cell count.
func (c *Cuboid) Rows() int {
	if c.Width == 0 {
		return len(c.States)
	}
	return len(c.Keys) / c.Width
}

// Row returns row i's key tuple (aliases the cuboid's storage).
func (c *Cuboid) Row(i int) []uint32 {
	return c.Keys[i*c.Width : (i+1)*c.Width]
}

// stateBytes is the in-memory footprint of one agg.State (count + 3
// float64 components).
const stateBytes = 32

// cuboidOverheadBytes charges the struct header and slice headers so that
// even tiny cuboids have a non-zero cache footprint.
const cuboidOverheadBytes = 96

// SizeBytes returns the cuboid's approximate resident footprint — the
// quantity the byte-budgeted cache accounts and evicts by.
func (c *Cuboid) SizeBytes() int64 {
	return cuboidOverheadBytes + 4*int64(len(c.Keys)) + stateBytes*int64(len(c.States))
}

// aggregateFrom computes the cuboid for mask by aggregating src, a
// resident ancestor (mask ⊆ src.Mask). cols gives, for each attribute of
// mask in ascending order, its column index within src's rows; cards the
// attribute's code cardinality (for radix sizing). relation.GroupRows
// orders src's rows by the projected tuple — no sort at all when mask is
// a prefix of src.Mask — and each run of equal tuples merges into one
// cell, in src's row order. sc supplies reusable sort scratch; per the
// relation.Scratch ownership rule it must be private to the calling
// goroutine.
func aggregateFrom(src *Cuboid, mask lattice.Mask, cols []int, cards []int, sc *relation.Scratch) *Cuboid {
	if mask == src.Mask {
		return src
	}
	g := relation.GroupRows(src.Keys, src.Width, src.Rows(), cols, cards, true, sc)
	out := &Cuboid{Mask: mask, Width: len(cols), Keys: g.Keys(), States: g.Merge(src.States)}
	g.Release(sc)
	return out
}

// LeafFromRows groups a row multiset into its full-width cuboid: keys
// holds len(meas)×width codes row-major, column c's codes below cards[c],
// and meas one measure per row. The result carries the full mask of
// width dimensions, rows in ascending tuple order, and one state per
// distinct tuple folding its rows' measures in row order.
func LeafFromRows(width int, keys []uint32, meas []float64, cards []int) *Cuboid {
	return leafFromRows(width, keys, meas, cards, nil)
}

// leafFromRows is LeafFromRows over the sort scratch sc (nil allocates).
func leafFromRows(width int, keys []uint32, meas []float64, cards []int, sc *relation.Scratch) *Cuboid {
	cols := sc.Ints(width)[:width]
	for i := range cols {
		cols[i] = i
	}
	g := relation.GroupRows(keys, width, len(meas), cols, cards, false, sc)
	out := &Cuboid{
		Mask:   lattice.Mask(1)<<uint(width) - 1,
		Width:  width,
		Keys:   g.Keys(),
		States: make([]agg.State, g.Len()),
	}
	for i := range out.States {
		st := agg.NewState()
		lo, hi := g.Run(i)
		for j := lo; j < hi; j++ {
			st.Add(meas[g.Row(j)])
		}
		out.States[i] = st
	}
	g.Release(sc)
	sc.PutInts(cols)
	return out
}
