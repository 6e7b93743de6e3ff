package serve

import (
	"slices"

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
// attribute's code cardinality (for radix sizing). The returned cuboid is
// sorted in natural tuple order because the permutation sort is stable and
// keyed on exactly the projected columns. sc supplies reusable sort
// scratch; per the relation.Scratch ownership rule it must be private to
// the calling goroutine.
func aggregateFrom(src *Cuboid, mask lattice.Mask, cols []int, cards []int, sc *relation.Scratch) *Cuboid {
	n := src.Rows()
	width := len(cols)
	if width == 0 {
		// Roll everything up to the single "all" cell.
		st := agg.NewState()
		for _, s := range src.States {
			st.Merge(s)
		}
		out := &Cuboid{Mask: mask, Width: 0}
		if n > 0 {
			out.States = []agg.State{st}
		}
		return out
	}
	if mask == src.Mask {
		return src
	}

	// When cols are src's leading columns, src's rows are already in the
	// query's tuple order and equal tuples are adjacent: no sort.
	var perm []int32
	if !isLeading(cols) {
		perm = relation.SortRowsBy(src.Keys, src.Width, n, cols, cards, sc)
	}

	// Merge runs of equal projected tuples into output cells.
	outKeys := make([]uint32, 0, 4*width)
	outStates := make([]agg.State, 0, 4)
	for i := 0; i < n; i++ {
		r := i
		if perm != nil {
			r = int(perm[i])
		}
		row := src.Keys[r*src.Width : (r+1)*src.Width]
		if last := len(outStates) - 1; last >= 0 && sameProjected(outKeys[last*width:], row, cols) {
			outStates[last].Merge(src.States[r])
			continue
		}
		for _, col := range cols {
			outKeys = append(outKeys, row[col])
		}
		outStates = append(outStates, src.States[r])
	}
	if perm != nil {
		sc.PutInt32s(perm)
	}
	return &Cuboid{Mask: mask, Width: width, Keys: outKeys, States: outStates}
}

// isLeading reports whether cols is 0, 1, …, len(cols)-1: the query is a
// prefix of the source (lattice.Mask.PrefixOf).
func isLeading(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// sameProjected reports whether prev equals row projected onto cols.
func sameProjected(prev, row []uint32, cols []int) bool {
	for i, col := range cols {
		if prev[i] != row[col] {
			return false
		}
	}
	return true
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
	perm := relation.SortRows(keys, width, len(meas), cards, sc)
	row := func(i int) []uint32 { r := int(perm[i]); return keys[r*width : (r+1)*width] }
	newCell := func(i int) bool { return i == 0 || !slices.Equal(row(i-1), row(i)) }

	// Count the distinct tuples first so the output is allocated once.
	cells := 0
	for i := range perm {
		if newCell(i) {
			cells++
		}
	}
	out := &Cuboid{
		Mask:   lattice.Mask(1)<<uint(width) - 1,
		Width:  width,
		Keys:   make([]uint32, 0, cells*width),
		States: make([]agg.State, 0, cells),
	}
	for i, r := range perm {
		if newCell(i) {
			out.Keys = append(out.Keys, row(i)...)
			out.States = append(out.States, agg.NewState())
		}
		out.States[len(out.States)-1].Add(meas[r])
	}
	sc.PutInt32s(perm)
	return out
}
