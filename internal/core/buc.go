package core

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// bucCtx carries the invariants of one BUC traversal so the recursion only
// passes what changes.
type bucCtx struct {
	rel     *relation.Relation
	dims    []int // cube dimensions: position p ⇔ rel dimension dims[p]
	cond    agg.Condition
	out     disk.CellSink
	ctr     *cost.Counters
	scratch *relation.Scratch // per-worker sort arena; nil falls back to per-call allocation
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

// BUCSubtreeScratch computes the full BUC subtree rooted at cube position
// `start` (the task unit of RP, §3.1) over the rows in view, writing
// qualifying cells depth-first exactly as BUC does (Fig 2.9): the cell for
// a partition is written, then the recursion descends — so consecutive
// writes hop between cuboids and pay the scattered-I/O cost Fig 3.6
// measures. s is the per-worker arena (nil allowed) for all partitioning
// buffers, keeping steady-state recursion allocation-free.
//
// view is reordered in place.
func BUCSubtreeScratch(rel *relation.Relation, view []int32, dims []int, start int, cond agg.Condition, out *disk.Writer, ctr *cost.Counters, s *relation.Scratch) {
	c := &bucCtx{rel: rel, dims: dims, cond: cond, out: out, ctr: ctr, scratch: s}
	key := s.Uint32s(len(dims))
	c.bucRecurse(view, start, 0, key)
	s.PutUint32s(key)
}

// bucRecurse partitions view on cube position p, and for every surviving
// partition writes its cell and recurses on positions > p.
func (c *bucCtx) bucRecurse(view []int32, p int, mask lattice.Mask, key []uint32) {
	if len(view) == 0 {
		return
	}
	d := c.dims[p]
	bounds := c.rel.PartitionViewScratch(view, d, c.ctr, c.scratch)
	childMask := mask | 1<<uint(p)
	col := c.rel.Column(d)
	for i := 0; i+1 < len(bounds); i++ {
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
	c.scratch.PutInts(bounds)
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
		BUCSubtreeScratch(rel, view, dims, p, cond, out, ctr, scratch)
	}
}
