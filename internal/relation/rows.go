package relation

import "icebergcube/internal/agg"

// colBytes returns how many radix passes (low-order bytes) are needed to
// order codes below card.
func colBytes(card int) int {
	switch {
	case card <= 1<<8:
		return 1
	case card <= 1<<16:
		return 2
	case card <= 1<<24:
		return 3
	}
	return 4
}

// RadixPasses returns the counting passes SortRowsBy makes to order rows
// by columns of the given cardinalities — the per-row cost of the sort.
func RadixPasses(cards []int) int {
	n := 0
	for _, c := range cards {
		n += colBytes(c)
	}
	return n
}

// SortRowsBy orders the n rows of keys (stride codes per row) by the tuple
// of columns cols: a stable LSD radix, least-significant column first,
// one counting pass per significant byte of cards[c]. It returns the
// permutation, taken from sc — the caller hands it back with PutInt32s.
// Steady state performs zero allocations: every buffer comes from the
// scratch arena. It is the one radix sort over row-major code tuples:
// the serving layer's roll-ups and folds, the write path's grouping and
// the result sink's seal all call it.
func SortRowsBy(keys []uint32, stride, n int, cols, cards []int, sc *Scratch) []int32 {
	perm := sc.Int32s(n)[:n]
	tmp := sc.Int32s(n)[:n]
	counts := sc.Int32s(256)[:256]
	for i := range perm {
		perm[i] = int32(i)
	}
	for c := len(cols) - 1; n > 0 && c >= 0; c-- {
		// Indexing a column-offset slice with an unsigned shift keeps the
		// scatter loop's state in registers; it is memory-bound, and a
		// spill measured 1.5× slower.
		col := keys[cols[c]:]
		for shift := uint(0); shift < 8*uint(colBytes(cards[c])); shift += 8 {
			clear(counts)
			for _, r := range perm {
				counts[byte(col[int(r)*stride]>>shift)]++
			}
			var sum int32
			for b := range counts {
				counts[b], sum = sum, sum+counts[b]
			}
			for _, r := range perm {
				b := byte(col[int(r)*stride] >> shift)
				tmp[counts[b]] = r
				counts[b]++
			}
			perm, tmp = tmp, perm
		}
	}
	sc.PutInt32s(counts)
	sc.PutInt32s(tmp)
	return perm
}

// SortRows returns the radix group-by order of n full-width rows (keys
// holds n×width codes row-major, column c's codes below cards[c]): rows
// in ascending tuple order, and rows with equal tuples adjacent in input
// order, because the sort is stable. The permutation comes from sc (nil
// allocates); hand it back with PutInt32s.
func SortRows(keys []uint32, width, n int, cards []int, sc *Scratch) []int32 {
	cols := sc.Ints(width)[:width]
	for i := range cols {
		cols[i] = i
	}
	perm := SortRowsBy(keys, width, n, cols, cards, sc)
	sc.PutInts(cols)
	return perm
}

// Groups is n row-major code tuples grouped by their projection onto some
// columns (GroupRows): the rows in ascending projected-tuple order, and
// where each run of equal projected tuples starts. Its buffers come from
// the caller's scratch; hand them back with Release.
type Groups struct {
	keys   []uint32
	stride int
	n      int
	cols   []int
	perm   []int32 // row order; nil when the input order already is
	starts []int32 // the first position of each run, ascending
}

// GroupRows groups the n rows of keys (stride codes per row) by their
// projection onto cols, cards[j] bounding the codes of column cols[j]. It
// radix-sorts the rows by the projected tuple (SortRowsBy) unless sorted
// says they already are in ascending tuple order and cols are their
// leading columns, whose projection is then sorted too. Within a run the
// rows keep input order, since the sort is stable. It is the one
// run-grouping loop over code tuples: the serving layer's roll-ups, leaf
// builds and delta projections and the result sink's seal all call it.
func GroupRows(keys []uint32, stride, n int, cols, cards []int, sorted bool, sc *Scratch) Groups {
	g := Groups{keys: keys, stride: stride, n: n, cols: cols}
	for i, c := range cols {
		sorted = sorted && c == i
	}
	if !sorted {
		g.perm = SortRowsBy(keys, stride, n, cols, cards, sc)
	}
	g.starts = sc.Int32s(n)
	prev := -1
	for i := 0; i < n; i++ {
		r := g.Row(i)
		if prev < 0 || !g.same(prev, r) {
			g.starts = append(g.starts, int32(i))
		}
		prev = r
	}
	return g
}

// same reports whether rows a and b agree on every grouped column.
func (g *Groups) same(a, b int) bool {
	ra, rb := g.keys[a*g.stride:], g.keys[b*g.stride:]
	for _, c := range g.cols {
		if ra[c] != rb[c] {
			return false
		}
	}
	return true
}

// Len returns the number of runs: the distinct projected tuples.
func (g *Groups) Len() int { return len(g.starts) }

// Run returns run i's positions [lo, hi) in the grouped order.
func (g *Groups) Run(i int) (lo, hi int) {
	lo, hi = int(g.starts[i]), g.n
	if i+1 < len(g.starts) {
		hi = int(g.starts[i+1])
	}
	return lo, hi
}

// Row returns the input row at position j of the grouped order.
func (g *Groups) Row(j int) int {
	if g.perm == nil {
		return j
	}
	return int(g.perm[j])
}

// Keys returns every run's projected tuple, row-major in run order, in an
// exactly sized slice; nil when no column is grouped.
func (g *Groups) Keys() []uint32 {
	if len(g.cols) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(g.starts)*len(g.cols))
	for _, lo := range g.starts {
		row := g.keys[g.Row(int(lo))*g.stride:]
		for _, c := range g.cols {
			out = append(out, row[c])
		}
	}
	return out
}

// Merge returns, per run, the merge of its rows' states in row order;
// nil when states is.
func (g *Groups) Merge(states []agg.State) []agg.State {
	if states == nil {
		return nil
	}
	out := make([]agg.State, len(g.starts))
	for i := range out {
		lo, hi := g.Run(i)
		st := states[g.Row(lo)]
		for j := lo + 1; j < hi; j++ {
			st.Merge(states[g.Row(j)])
		}
		out[i] = st
	}
	return out
}

// Release hands the grouping's buffers back to sc.
func (g *Groups) Release(sc *Scratch) {
	sc.PutInt32s(g.starts)
	sc.PutInt32s(g.perm)
}
