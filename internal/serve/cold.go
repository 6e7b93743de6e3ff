package serve

import (
	"context"
	"fmt"
	"slices"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// ColdSource is a streamable columnar store of leaf rows — the segment
// tier below the cache. Scan must yield the requested dimension columns
// (dense, in the order of dims) plus the measure, chunk by chunk; a nil
// dims requests no dimension columns (the "all" roll-up reads measures
// only). Implementations choose the chunk size; the server never retains
// yielded slices across calls. Scan must stop and return the error when
// yield returns one (that is how a cancelled query aborts the read).
type ColdSource interface {
	// Width is the number of leaf dimensions.
	Width() int
	// Rows is the total row count (sizing hint for ancestor selection).
	Rows() int
	// Scan streams the given dimension columns and the measure.
	Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error
}

// coldLeaf is the streamed leaf source: the finest cuboid stays in a
// ColdSource and is aggregated straight off it, one projected chunk at a
// time, so peak memory is the result size plus one chunk — never the leaf.
type coldLeaf struct{ src ColdSource }

// NewColdServer builds a server whose leaf stays in src: it holds only the
// byte-budgeted cache of computed cuboids and falls back to streaming the
// store when no resident ancestor covers a query. cards gives the code
// cardinality of each leaf dimension; budgetBytes ≤ 0 selects
// DefaultBudgetBytes.
func NewColdServer(src ColdSource, cards []int, budgetBytes int64) (*Server, error) {
	w := src.Width()
	if w != len(cards) {
		return nil, fmt.Errorf("serve: cold source has %d dims but %d cardinalities", w, len(cards))
	}
	if w <= 0 || w >= 32 {
		return nil, fmt.Errorf("serve: cold source width %d out of range", w)
	}
	return newServer(coldLeaf{src}, (1<<uint(w))-1, cards, budgetBytes), nil
}

func (c coldLeaf) pinned() *Cuboid { return nil }
func (c coldLeaf) rows() int       { return c.src.Rows() }

// aggregate streams the queried columns from the store and folds each
// chunk into a running sorted cuboid: LeafFromRows groups the chunk's rows
// into a cuboid over q's columns, and mergeCuboids folds it into the
// accumulator. The context is checked before each chunk so an abandoned
// query aborts the scan instead of reading the rest of the table.
func (c coldLeaf) aggregate(ctx context.Context, q lattice.Mask, cards []int, sc *relation.Scratch, st *QueryStats) (*Cuboid, error) {
	_, qCards := project(cards, q, q)
	w := len(qCards)
	acc := &Cuboid{Mask: q, Width: w}
	var scanned int64
	err := c.src.Scan(q.Dims(), func(cols [][]uint32, meas []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(meas)
		if n == 0 {
			return nil
		}
		scanned += int64(n)
		keys := sc.Uint32s(n * w)
		for i := 0; i < n; i++ {
			for _, col := range cols {
				keys = append(keys, col[i])
			}
		}
		chunk := leafFromRows(w, keys, meas, qCards, sc)
		sc.PutUint32s(keys)
		chunk.Mask = q
		acc = mergeCuboids(acc, chunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.ColdScan, st.RowsScanned = true, scanned
	return acc, nil
}

// mergeCuboids merges two cuboids of the same mask, each sorted in
// ascending tuple order, into one sorted cuboid; equal tuples merge their
// states. Either input's storage may be reused by the result.
func mergeCuboids(a, b *Cuboid) *Cuboid {
	if a.Rows() == 0 {
		return b
	}
	if b.Rows() == 0 {
		return a
	}
	w := a.Width
	if w == 0 {
		st := a.States[0]
		st.Merge(b.States[0])
		return &Cuboid{Mask: a.Mask, Width: 0, States: []agg.State{st}}
	}
	an, bn := a.Rows(), b.Rows()
	out := &Cuboid{
		Mask:   a.Mask,
		Width:  w,
		Keys:   make([]uint32, 0, (an+bn)*w),
		States: make([]agg.State, 0, an+bn),
	}
	i, j := 0, 0
	for i < an && j < bn {
		cmp := slices.Compare(a.Row(i), b.Row(j))
		switch {
		case cmp < 0:
			out.Keys = append(out.Keys, a.Row(i)...)
			out.States = append(out.States, a.States[i])
			i++
		case cmp > 0:
			out.Keys = append(out.Keys, b.Row(j)...)
			out.States = append(out.States, b.States[j])
			j++
		default:
			st := a.States[i]
			st.Merge(b.States[j])
			out.Keys = append(out.Keys, a.Row(i)...)
			out.States = append(out.States, st)
			i++
			j++
		}
	}
	for ; i < an; i++ {
		out.Keys = append(out.Keys, a.Row(i)...)
		out.States = append(out.States, a.States[i])
	}
	for ; j < bn; j++ {
		out.Keys = append(out.Keys, b.Row(j)...)
		out.States = append(out.States, b.States[j])
	}
	return out
}
