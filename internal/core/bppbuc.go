package core

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// BPP-BUC (Fig 3.5) is the breadth-first-writing bottom-up kernel: it
// writes *all* cells of a cuboid before moving to the next cuboid, so the
// simulated disk pays one stream switch per cuboid instead of (nearly) one
// per cell. It also prunes: tuples in groups that cannot reach the
// threshold are removed from the view passed to deeper recursion, exactly
// like BUC.
//
// The kernel is generalized to run any Subtree of the BUC processing tree —
// full subtrees (BPP's T_Ai tasks) or chopped subtrees (PT's
// binary-division tasks, §3.4): nodes absent from the subtree are neither
// written nor descended into, except that pruning still applies on the path
// through the subtree's root.

// RunSubtree executes subtree t over the rows of view. view must already be
// sorted by t.Root's dimensions (the driver owns that sort so PT can share
// sort prefixes across tasks); it is not modified.
func RunSubtree(rel *relation.Relation, view []int32, dims []int, t *lattice.Subtree, cond agg.Condition, out *disk.Writer, ctr *cost.Counters) {
	RunSubtreeScratch(rel, view, dims, t, cond, out, ctr, nil)
}

// RunSubtreeScratch is RunSubtree using the given per-worker arena (nil
// allowed) for pruned-view, child-view, position and key buffers, keeping
// the breadth-first recursion allocation-free in steady state.
func RunSubtreeScratch(rel *relation.Relation, view []int32, dims []int, t *lattice.Subtree, cond agg.Condition, out *disk.Writer, ctr *cost.Counters, s *relation.Scratch) {
	c := &bucCtx{rel: rel, dims: dims, cond: cond, out: out, ctr: ctr, scratch: s}
	rootPos := t.Root.Dims()
	key := s.Uint32s(len(rootPos))[:len(rootPos)]
	c.breadthNode(view, t.Root, rootPos, t, key)
	s.PutUint32s(key[:0])
}

// breadthNode processes one cuboid node: view is sorted by the node's
// dimension positions nodePos. It writes the node's cells (if the node is
// in the task), prunes under-threshold groups, and recurses into the
// node's children present in the task.
func (c *bucCtx) breadthNode(view []int32, node lattice.Mask, nodePos []int, t *lattice.Subtree, key []uint32) {
	if len(view) == 0 {
		return
	}
	writeNode := t.Contains(node)

	// Walk the view once, detecting group boundaries on the node's full
	// key, writing cells breadth-first, and compacting surviving groups
	// into pruned. pruned never outgrows view, so the pooled buffer is
	// never reallocated.
	pruned := c.scratch.Int32s(len(view))
	defer func() { c.scratch.PutInt32s(pruned[:0]) }()
	lo := 0
	flush := func(hi int) {
		run := view[lo:hi]
		if writeNode && node != 0 {
			st := c.aggregateRun(run)
			for i, p := range nodePos {
				key[i] = c.rel.Value(c.dims[p], int(run[0]))
			}
			if c.cond.Holds(st) {
				c.out.WriteCell(node, key, st)
			}
		}
		if !c.cond.PrunePartition(int64(len(run))) {
			pruned = append(pruned, run...)
		}
		lo = hi
	}
	if node == 0 {
		// The (possibly excluded) "all" node groups everything together.
		if writeNode {
			st := c.aggregateRun(view)
			if c.cond.Holds(st) {
				c.out.WriteCell(0, nil, st)
			}
		}
		if c.cond.PrunePartition(int64(len(view))) {
			return
		}
		pruned = append(pruned, view...)
	} else {
		for i := 1; i < len(view); i++ {
			if !c.sameKey(view[i], view[i-1], nodePos) {
				flush(i)
			}
		}
		flush(len(view))
	}
	if len(pruned) == 0 {
		return
	}

	maxPos := -1
	if len(nodePos) > 0 {
		maxPos = nodePos[len(nodePos)-1]
	}
	for k := maxPos + 1; k < len(c.dims); k++ {
		child := node | 1<<uint(k)
		if !t.Contains(child) && !branchIntersects(child, t) {
			continue
		}
		// Copy the surviving view, extend the sort order by the child's
		// dimension, recurse.
		childView := append(c.scratch.Int32s(len(pruned)), pruned...)
		c.sortWithinGroups(childView, nodePos, c.dims[k])
		childPos := append(append(c.scratch.Ints(len(nodePos)+1), nodePos...), k)
		childKey := c.scratch.Uint32s(len(childPos))[:len(childPos)]
		c.breadthNode(childView, child, childPos, t, childKey)
		c.scratch.PutUint32s(childKey[:0])
		c.scratch.PutInts(childPos)
		c.scratch.PutInt32s(childView)
	}
}

// branchIntersects reports whether any task node lies in the full BUC
// branch rooted at child — needed when the task's own root is above a kept
// branch (chopped subtrees keep complete branches, so membership of the
// branch root is normally enough; this check keeps the kernel correct for
// arbitrary node sets).
func branchIntersects(child lattice.Mask, t *lattice.Subtree) bool {
	if t.Contains(child) {
		return true
	}
	for m := range t.Nodes {
		if child.SubsetOf(m) {
			return true
		}
	}
	return false
}

// sameKey reports whether two rows agree on all the cube positions in pos,
// charging the elements compared.
func (c *bucCtx) sameKey(a, b int32, pos []int) bool {
	for i, p := range pos {
		if c.rel.Value(c.dims[p], int(a)) != c.rel.Value(c.dims[p], int(b)) {
			c.ctr.AddCompares(int64(i + 1))
			return false
		}
	}
	c.ctr.AddCompares(int64(len(pos)))
	return true
}

// sortWithinGroups sorts view by rel dimension d within each run of equal
// values on the cube positions groupPos (the incremental sort of Fig 3.5
// line 15: the view is already sorted by the prefix, only the new attribute
// needs ordering inside each prefix group).
func (c *bucCtx) sortWithinGroups(view []int32, groupPos []int, d int) {
	lo := 0
	for i := 1; i <= len(view); i++ {
		if i == len(view) || !c.sameKey(view[i], view[i-1], groupPos) {
			c.rel.SortViewScratch(view[lo:i], []int{d}, c.ctr, c.scratch)
			lo = i
		}
	}
}

// SortForRoot sorts view by the root dimensions of a task, reusing a shared
// prefix with the worker's previous sort order (affinity sort sharing,
// §3.4): only attributes beyond the shared prefix are re-sorted, inside the
// groups the prefix defines. It returns the new sort order (rel dimension
// list).
func SortForRoot(rel *relation.Relation, view []int32, dims []int, prevOrder []int, root lattice.Mask, ctr *cost.Counters) []int {
	return SortForRootScratch(rel, view, dims, prevOrder, root, ctr, nil)
}

// SortForRootScratch is SortForRoot using the given per-worker arena (nil
// allowed). The returned sort order is freshly allocated — it outlives the
// call as the worker's affinity state, so it must not come from the arena.
func SortForRootScratch(rel *relation.Relation, view []int32, dims []int, prevOrder []int, root lattice.Mask, ctr *cost.Counters, s *relation.Scratch) []int {
	rootDims := make([]int, 0, root.Count())
	for _, p := range root.Dims() {
		rootDims = append(rootDims, dims[p])
	}
	shared := 0
	for shared < len(rootDims) && shared < len(prevOrder) && rootDims[shared] == prevOrder[shared] {
		shared++
	}
	if shared == 0 {
		rel.SortViewScratch(view, rootDims, ctr, s)
		return rootDims
	}
	if shared == len(rootDims) {
		return rootDims
	}
	// Sort the remaining attributes within each group of the shared
	// prefix.
	lo := 0
	same := func(a, b int32) bool {
		for i := 0; i < shared; i++ {
			if rel.Value(rootDims[i], int(a)) != rel.Value(rootDims[i], int(b)) {
				ctr.AddCompares(int64(i + 1))
				return false
			}
		}
		ctr.AddCompares(int64(shared))
		return true
	}
	for i := 1; i <= len(view); i++ {
		if i == len(view) || !same(view[i], view[i-1]) {
			rel.SortViewScratch(view[lo:i], rootDims[shared:], ctr, s)
			lo = i
		}
	}
	return rootDims
}
