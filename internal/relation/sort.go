package relation

// CompareCounter receives the number of key-element comparisons performed by
// sorting and searching routines. It lets the cost model charge composite-key
// comparisons proportionally to key length, which is what makes ASL's
// high-dimensionality penalty (Fig 4.4) emerge from measurement rather than
// from a hard-coded constant.
type CompareCounter interface {
	AddCompares(n int64)
}

// nopCounter is used when the caller does not care about comparison counts.
type nopCounter struct{}

func (nopCounter) AddCompares(int64) {}

// NopCounter returns a CompareCounter that discards all counts.
func NopCounter() CompareCounter { return nopCounter{} }

// insertionThreshold is the run length below which the comparison-charged
// insertion sort beats the per-pass histogram overhead of radix sort.
const insertionThreshold = 32

// SortView reorders idx so the rows it names are sorted lexicographically by
// the given dimensions. It is shorthand for SortViewScratch with a nil
// scratch; hot paths should hold a per-worker Scratch and call
// SortViewScratch instead.
func (r *Relation) SortView(idx []int32, dims []int, ctr CompareCounter) {
	r.SortViewScratch(idx, dims, ctr, nil)
}

// SortViewScratch is SortView using the given arena (nil allowed) for all
// intermediate buffers. With a warmed per-worker Scratch the sort performs
// zero heap allocations. Per key it chooses counting sort when the
// dimension's cardinality is small relative to the run length (mirroring
// the counting-sort optimization in the BUC paper), insertion sort for tiny
// runs, and a stable LSD radix sort on the uint32 codes otherwise.
func (r *Relation) SortViewScratch(idx []int32, dims []int, ctr CompareCounter, s *Scratch) {
	if ctr == nil {
		ctr = nopCounter{}
	}
	r.sortRun(idx, dims, ctr, s)
}

func (r *Relation) sortRun(idx []int32, dims []int, ctr CompareCounter, s *Scratch) {
	if len(dims) == 0 || len(idx) < 2 {
		return
	}
	bounds := r.sortDim(idx, dims[0], ctr, s, len(dims) > 1)
	if len(dims) > 1 {
		for i := 0; i+1 < len(bounds); i++ {
			r.sortRun(idx[bounds[i]:bounds[i+1]], dims[1:], ctr, s)
		}
	}
	s.PutInts(bounds)
}

// sortDim stably orders idx by dimension d, dispatching to the cheapest
// kernel for the (run length, cardinality) shape. When needBounds is set it
// returns the equal-value run boundaries (including 0 and len(idx)); the
// returned slice comes from the scratch pool — release it with PutInts.
func (r *Relation) sortDim(idx []int32, d int, ctr CompareCounter, s *Scratch, needBounds bool) []int {
	if r.cards[d] <= 4*len(idx) && r.cards[d] <= 1<<20 {
		return r.countingSort(idx, d, ctr, s, needBounds)
	}
	col := r.cols[d]
	if len(idx) <= insertionThreshold {
		insertionSortByCol(idx, col, ctr)
	} else {
		radixSortByCol(idx, col, uint32(r.cards[d]-1), ctr, s)
	}
	if !needBounds {
		return nil
	}
	return r.RunsScratch(idx, d, s)
}

// insertionSortByCol is the small-run comparison sort: stable, in place,
// charging the comparisons actually performed (like the comparison-sort
// fallback it replaces).
func insertionSortByCol(idx []int32, col []uint32, ctr CompareCounter) {
	var compares int64
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		v := col[x]
		j := i - 1
		for j >= 0 {
			compares++
			if col[idx[j]] <= v {
				break
			}
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
	ctr.AddCompares(compares)
}

// radixSortByCol stably orders idx by col using LSD radix passes over the
// uint32 codes, 8 bits per pass, skipping passes whose byte is constant.
// Each pass scans every element once and inspects one key byte, so it is
// charged one comparison-equivalent per element per pass — the same
// accounting shape as counting sort, keeping the cost model
// measurement-driven.
func radixSortByCol(idx []int32, col []uint32, maxv uint32, ctr CompareCounter, s *Scratch) {
	n := len(idx)
	keys, tmpKeys := s.keyBufs(n)
	tmpIdx := s.outBuf(n)
	for i, row := range idx {
		keys[i] = col[row]
	}
	src, dst := idx, tmpIdx
	ksrc, kdst := keys, tmpKeys
	var hist [257]int32
	var passes int64
	for shift := uint(0); shift < 32; shift += 8 {
		if shift > 0 && maxv>>shift == 0 {
			break
		}
		clear(hist[:])
		for _, k := range ksrc {
			hist[(k>>shift)&0xff+1]++
		}
		// A constant byte leaves the order unchanged: skip the scatter.
		if hist[(ksrc[0]>>shift)&0xff+1] == int32(n) {
			continue
		}
		passes++
		for b := 0; b < 256; b++ {
			hist[b+1] += hist[b]
		}
		for i := 0; i < n; i++ {
			b := (ksrc[i] >> shift) & 0xff
			p := hist[b]
			hist[b] = p + 1
			dst[p] = src[i]
			kdst[p] = ksrc[i]
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
	ctr.AddCompares(int64(n) * passes)
}

// countingSort stably orders idx by dimension d; with needBounds it returns
// the run boundaries: bounds[i]..bounds[i+1] delimit the i-th
// distinct-value run (empty runs are removed). The scan charges one
// comparison-equivalent per element so counting and comparison sorts are
// charged comparably. All buffers come from the scratch arena.
func (r *Relation) countingSort(idx []int32, d int, ctr CompareCounter, s *Scratch, needBounds bool) []int {
	col := r.cols[d]
	card := r.cards[d]
	counts := s.countsBuf(card + 1)
	for _, row := range idx {
		counts[col[row]+1]++
	}
	for v := 0; v < card; v++ {
		counts[v+1] += counts[v]
	}
	out := s.outBuf(len(idx))
	pos := s.posBuf(card)
	copy(pos, counts[:card])
	for _, row := range idx {
		v := col[row]
		out[pos[v]] = row
		pos[v]++
	}
	copy(idx, out)
	ctr.AddCompares(int64(len(idx)))

	if !needBounds {
		return nil
	}
	bounds := s.Ints(16)
	prev := int32(-1)
	for v := 0; v <= card; v++ {
		if counts[v] != prev {
			bounds = append(bounds, int(counts[v]))
			prev = counts[v]
		}
	}
	return bounds
}

// Runs scans idx (which must already be sorted by dimension d) and returns
// the boundaries of equal-value runs, including 0 and len(idx).
func (r *Relation) Runs(idx []int32, d int) []int {
	return r.RunsScratch(idx, d, nil)
}

// RunsScratch is Runs drawing the boundary slice from the scratch pool;
// release the result with PutInts to reuse it.
func (r *Relation) RunsScratch(idx []int32, d int, s *Scratch) []int {
	col := r.cols[d]
	bounds := s.Ints(16)
	bounds = append(bounds, 0)
	for i := 1; i < len(idx); i++ {
		if col[idx[i]] != col[idx[i-1]] {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(idx))
	return bounds
}

// PartitionView stably groups idx by dimension d and returns the run
// boundaries. It is the partitioning primitive of BUC (Fig 2.10); hot paths
// should use PartitionViewScratch.
func (r *Relation) PartitionView(idx []int32, d int, ctr CompareCounter) []int {
	return r.PartitionViewScratch(idx, d, ctr, nil)
}

// PartitionViewScratch is PartitionView using the given arena (nil
// allowed). The returned bounds slice comes from the scratch pool: release
// it with s.PutInts once the partitions have been consumed so steady-state
// partitioning stays allocation-free.
func (r *Relation) PartitionViewScratch(idx []int32, d int, ctr CompareCounter, s *Scratch) []int {
	if ctr == nil {
		ctr = nopCounter{}
	}
	return r.sortDim(idx, d, ctr, s, true)
}

// CompareRows lexicographically compares two rows on the given dimensions,
// charging len(dims) comparisons at worst to ctr.
func (r *Relation) CompareRows(a, b int32, dims []int, ctr CompareCounter) int {
	var n int64
	defer func() { ctr.AddCompares(n) }()
	for _, d := range dims {
		n++
		va, vb := r.cols[d][a], r.cols[d][b]
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
	}
	return 0
}
