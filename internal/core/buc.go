package core

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/cluster"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

const (
	// bucForkCutoff is the view size below which forking a recursion level
	// into pool units costs more than it gains.
	bucForkCutoff = 512
	// forkUnitFactor over-decomposes forks relative to the pool width so
	// work stealing can balance skewed partitions.
	forkUnitFactor = 4
)

// bucCtx carries the invariants of one BUC traversal so the recursion only
// passes what changes. out is the cell sink of *this* traversal strand: the
// worker's Writer at top level, a fork unit's replay buffer inside a fork —
// which is how forked recursion preserves the serial cell order (and with
// it the Writer's stream-switch Seek accounting).
type bucCtx struct {
	rel     *relation.Relation
	dims    []int // cube dimensions: position p ⇔ rel dimension dims[p]
	cond    agg.Condition
	out     disk.CellSink
	ctr     *cost.Counters
	scratch *relation.Scratch // per-goroutine sort arena; nil falls back to per-call allocation
	grip    *cluster.Grip     // non-nil enables intra-task forking on the worker's pool
}

// aggregateRun folds the measures of a row run into a fresh state, charging
// one tuple scan per row.
func (c *bucCtx) aggregateRun(view []int32) agg.State {
	st := agg.NewState()
	meas := c.rel.Measures()
	for _, row := range view {
		st.Add(meas[row])
	}
	c.ctr.TuplesScanned += int64(len(view))
	return st
}

// unitCtx derives the bucCtx a fork unit recurses with: the executing
// goroutine's counter shard and scratch arena, the unit's ordered sink.
func (c *bucCtx) unitCtx(ug *cluster.Grip, uout disk.CellSink) *bucCtx {
	return &bucCtx{rel: c.rel, dims: c.dims, cond: c.cond, out: uout, ctr: &ug.Ctr, scratch: ug.Scratch, grip: ug}
}

// BUCSubtreeGrip computes the full BUC subtree rooted at cube position
// `start` (the task unit of RP, §3.1) over the rows in view, writing
// qualifying cells depth-first exactly as BUC does (Fig 2.9): the cell for
// a partition is written, then the recursion descends — so consecutive
// writes hop between cuboids and pay the scattered-I/O cost Fig 3.6
// measures. s is the per-worker arena (nil allowed) for all partitioning
// buffers, keeping steady-state recursion allocation-free. When g is
// non-nil, recursion levels over views of at least bucForkCutoff rows fork
// their partition ranges into stealable units on the worker's pool. Output
// cells, counter totals, and hence all virtual-time accounting are
// identical to the serial traversal for any pool width.
//
// view is reordered in place.
func BUCSubtreeGrip(rel *relation.Relation, view []int32, dims []int, start int, cond agg.Condition, out *disk.Writer, ctr *cost.Counters, s *relation.Scratch, g *cluster.Grip) {
	c := &bucCtx{rel: rel, dims: dims, cond: cond, out: out, ctr: ctr, scratch: s, grip: g}
	key := s.Uint32s(len(dims))
	c.bucRecurse(view, start, 0, key)
	s.PutUint32s(key)
}

// bucRecurse partitions view on cube position p, and for every surviving
// partition writes its cell and recurses on positions > p. Large views fork
// contiguous partition ranges onto the pool.
func (c *bucCtx) bucRecurse(view []int32, p int, mask lattice.Mask, key []uint32) {
	if len(view) == 0 {
		return
	}
	d := c.dims[p]
	bounds := c.rel.PartitionViewScratch(view, d, c.ctr, c.scratch)
	childMask := mask | 1<<uint(p)
	// The fork branch lives in its own method so its closure only forces
	// view/bounds/key to the heap when a pool is actually attached — inlined
	// here, the captures would cost an allocation per recursion level on the
	// serial path too.
	if c.grip != nil && len(view) >= bucForkCutoff && len(bounds) > 2 &&
		c.forkPartitions(view, bounds, p, childMask, key) {
		c.scratch.PutInts(bounds)
		return
	}
	c.bucPartitions(view, bounds, 0, len(bounds)-1, p, childMask, key)
	c.scratch.PutInts(bounds)
}

// forkPartitions forks the partition ranges of one recursion level onto the
// pool, reporting whether it did (false = too few ranges; run serially).
func (c *bucCtx) forkPartitions(view []int32, bounds []int, p int, childMask lattice.Mask, key []uint32) bool {
	ends := forkRanges(bounds, forkUnitFactor*c.grip.Width(), c.scratch)
	if len(ends) <= 1 {
		c.scratch.PutInts(ends)
		return false
	}
	c.grip.Fork(len(ends), c.out, func(u int, ug *cluster.Grip, uout disk.CellSink) {
		from := 0
		if u > 0 {
			from = ends[u-1]
		}
		uc := c.unitCtx(ug, uout)
		// Fork units copy the parent's key prefix: the serial code
		// appends into the shared prefix buffer, which concurrent
		// units must not alias.
		ukey := append(ug.Scratch.Uint32s(len(c.dims)), key...)
		uc.bucPartitions(view, bounds, from, ends[u], p, childMask, ukey)
		ug.Scratch.PutUint32s(ukey[:0])
	})
	c.scratch.PutInts(ends)
	return true
}

// bucPartitions runs the BUC partition loop over bound indices [from, to):
// aggregate, write, descend. This is the body both the serial path and the
// fork units execute, on disjoint view ranges.
func (c *bucCtx) bucPartitions(view []int32, bounds []int, from, to, p int, childMask lattice.Mask, key []uint32) {
	col := c.rel.Column(c.dims[p])
	for i := from; i < to; i++ {
		run := view[bounds[i]:bounds[i+1]]
		if c.cond.PrunePartition(int64(len(run))) {
			continue
		}
		st := c.aggregateRun(run)
		childKey := append(key, col[run[0]])
		if c.cond.Holds(st) {
			c.out.WriteCell(childMask, childKey, st)
		}
		for k := p + 1; k < len(c.dims); k++ {
			c.bucRecurse(run, k, childMask, childKey)
		}
	}
}

// forkRanges splits the partitions delimited by bounds into at most
// maxUnits contiguous ranges of roughly equal row count, returning the
// range-end indices into the partition list (the last entry is always
// len(bounds)-1). The slice comes from the scratch pool.
func forkRanges(bounds []int, maxUnits int, s *relation.Scratch) []int {
	total := bounds[len(bounds)-1] - bounds[0]
	target := (total + maxUnits - 1) / maxUnits
	ends := s.Ints(maxUnits + 1)
	startRow := bounds[0]
	for i := 1; i < len(bounds); i++ {
		if bounds[i]-startRow >= target || i == len(bounds)-1 {
			ends = append(ends, i)
			startRow = bounds[i]
		}
	}
	return ends
}

// BUC computes the complete iceberg cube sequentially with the original
// bottom-up algorithm (Fig 2.9): the "all" aggregate, then the subtree of
// every dimension in order. It is both the sequential baseline and the
// kernel RP parallelizes.
func BUC(rel *relation.Relation, dims []int, cond agg.Condition, out *disk.Writer, ctr *cost.Counters) {
	view := rel.Identity()
	scratch := relation.NewScratch()
	writeAll(rel, view, cond, out, ctr)
	for p := range dims {
		BUCSubtreeGrip(rel, view, dims, p, cond, out, ctr, scratch, nil)
	}
}
