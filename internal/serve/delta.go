package serve

import (
	"slices"

	"icebergcube/internal/agg"
	"icebergcube/internal/relation"
)

// Delta is one commit's net change to a cuboid, in the cuboid's own key
// space: for each touched key (ascending tuple order, like Cuboid.Keys),
// the aggregate of the appended tuples and the aggregate of the deleted
// tuples. The deleted aggregate is enough to decide retractability per
// cell: Del.Min == cell.Min (or Del.Max == cell.Max) exactly when some
// deleted measure carries the cell's extreme, because every deleted
// measure lies inside the cell's range.
type Delta struct {
	// Width is the number of key columns.
	Width int
	// Keys holds Rows()×Width codes row-major, ascending tuple order.
	Keys []uint32
	// Add and Del hold, per key, the aggregate state of the appended and
	// deleted tuples (Count == 0 where a side is empty). A nil Del means
	// nothing was deleted: the delta is append-only.
	Add []agg.State
	Del []agg.State
}

// Rows returns the number of touched keys.
func (d *Delta) Rows() int { return len(d.Add) }

// Row returns row i's key tuple.
func (d *Delta) Row(i int) []uint32 {
	return d.Keys[i*d.Width : (i+1)*d.Width]
}

// Project re-aggregates the delta onto a coarser key: cols gives, for
// each output column, its column index within this delta's rows, and
// cards each of this delta's columns' code cardinality (for radix
// sizing). Added and deleted aggregates merge independently per
// projected key, in source-row order — merging is exact because appended
// and deleted tuple sets are each disjoint across source keys. The result
// is sorted in ascending tuple order; onto leading columns it needs no
// sort. sc supplies the sort scratch (nil allocates).
func (d *Delta) Project(cols, cards []int, sc *relation.Scratch) *Delta {
	qCards := sc.Ints(len(cols))
	for _, c := range cols {
		qCards = append(qCards, cards[c])
	}
	g := relation.GroupRows(d.Keys, d.Width, d.Rows(), cols, qCards, true, sc)
	out := &Delta{Width: len(cols), Keys: g.Keys(), Add: g.Merge(d.Add), Del: g.Merge(d.Del)}
	g.Release(sc)
	sc.PutInts(qCards)
	return out
}

// FoldStats describes how one FoldDelta maintained its cuboid.
type FoldStats struct {
	// Retracted counts cells maintained by pure state arithmetic
	// (including pure appends); Recomputed counts cells re-derived
	// through the recompute callback because a deletion touched a
	// Min/Max extreme.
	Retracted  int
	Recomputed int
	// Inserted and Dropped count cells added to and removed from the
	// cuboid.
	Inserted int
	Dropped  int
}

// FoldDelta applies one commit's delta to an immutable base cuboid,
// returning a new cuboid (the base is never mutated — in-flight readers
// of the previous snapshot keep aggregating from it). Cells untouched by
// the delta are copied; touched cells merge the added aggregate and then
// retract the deleted one (agg.State.Retract). When a retraction is not
// exact — a deleted tuple carried the cell's Min or Max — the cell is
// re-derived through recompute, which must return the cell's exact
// current state (Count == 0 meaning the cell is gone). recompute may be
// nil when the caller has no finer source, e.g. when folding a resident
// non-leaf cuboid: then a non-retractable cell makes the whole fold
// return ok == false (the cuboid is dirty and must be lazily re-derived
// from the new leaf), and the returned cuboid is nil.
//
// It is the one merge of two sorted runs in the serving layer: a commit
// folds its delta into the leaf and every resident cuboid, and a cold scan
// folds each grouped chunk into its accumulator as an append-only delta.
func FoldDelta(base *Cuboid, d *Delta, recompute func(key []uint32) agg.State) (*Cuboid, FoldStats, bool) {
	var stats FoldStats
	if base.Width != d.Width {
		panic("serve: delta width does not match cuboid width")
	}
	if base.Width == 0 {
		// The "all" cuboid: one cell (or none), one delta row at most.
		return foldAll(base, d, recompute, &stats)
	}
	n, m := base.Rows(), d.Rows()
	out := &Cuboid{
		Mask:   base.Mask,
		Width:  base.Width,
		Keys:   make([]uint32, 0, len(base.Keys)+len(d.Keys)),
		States: make([]agg.State, 0, n+m),
	}
	emit := func(key []uint32, st agg.State) {
		out.Keys = append(out.Keys, key...)
		out.States = append(out.States, st)
	}
	i, j := 0, 0
	for i < n || j < m {
		var cmp int
		switch {
		case i == n:
			cmp = 1
		case j == m:
			cmp = -1
		default:
			cmp = slices.Compare(base.Row(i), d.Row(j))
		}
		switch {
		case cmp < 0: // untouched base cell
			emit(base.Row(i), base.States[i])
			i++
		case cmp > 0: // new cell from the delta
			st, ok := applyDelta(agg.NewState(), d, j, recompute, &stats)
			if !ok {
				return nil, stats, false
			}
			if st.Count > 0 {
				emit(d.Row(j), st)
				stats.Inserted++
			}
			j++
		default: // touched cell
			st, ok := applyDelta(base.States[i], d, j, recompute, &stats)
			if !ok {
				return nil, stats, false
			}
			if st.Count > 0 {
				emit(base.Row(i), st)
			} else {
				stats.Dropped++
			}
			i++
			j++
		}
	}
	return out, stats, true
}

// applyDelta folds delta row j into state s: merge the appends, retract
// the deletes, re-derive through recompute when the retraction is not
// exact. ok == false means a re-derivation was needed but no recompute
// callback is available.
func applyDelta(s agg.State, d *Delta, j int, recompute func(key []uint32) agg.State, stats *FoldStats) (agg.State, bool) {
	s.Merge(d.Add[j])
	if d.Del == nil {
		stats.Retracted++
		return s, true
	}
	out, exact := s.Retract(d.Del[j])
	if exact {
		stats.Retracted++
		return out, true
	}
	if recompute == nil {
		return out, false
	}
	stats.Recomputed++
	return recompute(d.Row(j)), true
}

// foldAll is FoldDelta for the width-0 "all" cuboid.
func foldAll(base *Cuboid, d *Delta, recompute func(key []uint32) agg.State, stats *FoldStats) (*Cuboid, FoldStats, bool) {
	st := agg.NewState()
	if len(base.States) > 0 {
		st = base.States[0]
	}
	if d.Rows() > 0 {
		var ok bool
		st, ok = applyDelta(st, d, 0, recompute, stats)
		if !ok {
			return nil, *stats, false
		}
	}
	out := &Cuboid{Mask: base.Mask, Width: 0}
	if st.Count > 0 {
		out.States = []agg.State{st}
		if len(base.States) == 0 {
			stats.Inserted++
		}
	} else if len(base.States) > 0 {
		stats.Dropped++
	}
	return out, *stats, true
}
