package serve

import (
	"context"
	"fmt"

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
	s := newServer(nil, (1<<uint(w))-1, cards, budgetBytes)
	s.cold = src
	return s, nil
}

// scanCold computes q by streaming the queried columns from the cold
// store and folding each chunk into a running sorted cuboid: leafFromRows
// groups the chunk's rows over q's columns, and FoldDelta merges them into
// the accumulator as an append-only delta, so peak memory is the result
// plus one chunk — never the leaf. The context is checked before each
// chunk so an abandoned query aborts the scan instead of reading the rest
// of the table.
func (s *Server) scanCold(ctx context.Context, q lattice.Mask, sc *relation.Scratch, st *QueryStats) (*Cuboid, error) {
	_, qCards := project(s.cards, q, q)
	w := len(qCards)
	acc := &Cuboid{Mask: q, Width: w}
	var scanned int64
	err := s.cold.Scan(q.Dims(), func(cols [][]uint32, meas []float64) error {
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
		acc, _, _ = FoldDelta(acc, &Delta{Width: w, Keys: chunk.Keys, Add: chunk.States}, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.ColdScan, st.RowsScanned = true, scanned
	return acc, nil
}
