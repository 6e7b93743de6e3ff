// Package relation implements the tabular substrate the cube algorithms
// operate on: a dictionary-encoded, column-major relation of dimension
// attributes plus one numeric measure, together with the index-array
// sorting and partitioning primitives BUC-style algorithms rely on.
//
// Dimension values are dense small integers (codes); an Encoder maps raw
// string values to codes so that counting sort and direct array indexing
// stay cheap. Rows are never moved: all orderings are expressed through
// []int32 index views, which is what lets BUC partition recursively
// without copying the data set.
package relation

import (
	"fmt"
)

// Relation is a dictionary-encoded table with d dimension columns and one
// measure column. Columns are stored column-major so partition/sort passes
// touch a single contiguous slice per dimension.
type Relation struct {
	names []string
	cards []int
	cols  [][]uint32
	meas  []float64
}

// New returns an empty relation with the given dimension names and
// per-dimension cardinalities (number of distinct codes; all codes appended
// later must be < card).
func New(names []string, cards []int) *Relation {
	if len(names) != len(cards) {
		panic(fmt.Sprintf("relation: %d names but %d cardinalities", len(names), len(cards)))
	}
	cols := make([][]uint32, len(names))
	return &Relation{
		names: append([]string(nil), names...),
		cards: append([]int(nil), cards...),
		cols:  cols,
	}
}

// NewWithCapacity returns an empty relation preallocated for n rows, so a
// bounded-memory loader (the out-of-core spill path) can stream rows in
// without append reallocation ever exceeding its declared byte budget.
func NewWithCapacity(names []string, cards []int, n int) *Relation {
	r := New(names, cards)
	for d := range r.cols {
		r.cols[d] = make([]uint32, 0, n)
	}
	r.meas = make([]float64, 0, n)
	return r
}

// NumDims returns the number of dimension columns.
func (r *Relation) NumDims() int { return len(r.cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.meas) }

// Name returns the name of dimension d.
func (r *Relation) Name(d int) string { return r.names[d] }

// Names returns the dimension names. The caller must not modify the result.
func (r *Relation) Names() []string { return r.names }

// Card returns the cardinality (code space size) of dimension d.
func (r *Relation) Card(d int) int { return r.cards[d] }

// Append adds one tuple. dims must have one code per dimension, each within
// the declared cardinality.
func (r *Relation) Append(dims []uint32, measure float64) {
	if len(dims) != len(r.cols) {
		panic(fmt.Sprintf("relation: tuple has %d dims, want %d", len(dims), len(r.cols)))
	}
	for d, v := range dims {
		if int(v) >= r.cards[d] {
			panic(fmt.Sprintf("relation: code %d out of range for dimension %q (card %d)", v, r.names[d], r.cards[d]))
		}
		r.cols[d] = append(r.cols[d], v)
	}
	r.meas = append(r.meas, measure)
}

// AppendColumns bulk-appends a batch of rows given in columnar form:
// cols[d][i] is row i's code for dimension d, meas[i] its measure. This is
// the segment-scan ingestion path — one bounds check per column per batch
// instead of per row.
func (r *Relation) AppendColumns(cols [][]uint32, meas []float64) {
	if len(cols) != len(r.cols) {
		panic(fmt.Sprintf("relation: batch has %d dims, want %d", len(cols), len(r.cols)))
	}
	for d, col := range cols {
		if len(col) != len(meas) {
			panic(fmt.Sprintf("relation: dimension %q batch has %d rows, want %d", r.names[d], len(col), len(meas)))
		}
		for _, v := range col {
			if int(v) >= r.cards[d] {
				panic(fmt.Sprintf("relation: code %d out of range for dimension %q (card %d)", v, r.names[d], r.cards[d]))
			}
		}
		r.cols[d] = append(r.cols[d], col...)
	}
	r.meas = append(r.meas, meas...)
}

// Value returns the code of dimension d in row `row`.
func (r *Relation) Value(d, row int) uint32 { return r.cols[d][row] }

// Measure returns the measure of row `row`.
func (r *Relation) Measure(row int) float64 { return r.meas[row] }

// Column returns the backing slice of dimension d. Callers must treat it as
// read-only; it is exposed to keep inner partitioning loops allocation-free.
func (r *Relation) Column(d int) []uint32 { return r.cols[d] }

// Measures returns the backing measure slice (read-only for callers).
func (r *Relation) Measures() []float64 { return r.meas }

// Identity returns a fresh index view covering every row in storage order.
func (r *Relation) Identity() []int32 {
	idx := make([]int32, r.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// SizeBytes estimates the in-memory footprint of the relation, used by the
// cost model to charge data-set reads and by memory-budget checks.
func (r *Relation) SizeBytes() int64 {
	return int64(r.Len()) * int64(4*r.NumDims()+8)
}
