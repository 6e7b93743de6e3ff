package relation

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
