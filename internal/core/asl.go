package core

import (
	"fmt"
	"sync"

	"icebergcube/internal/agg"
	"icebergcube/internal/cluster"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/skiplist"
)

// ASL — Affinity SkipList (§3.3, Fig 3.8). Every cuboid is its own task
// (the finest granularity the lattice allows), cells live in skip lists,
// and a manager assigns tasks to workers dynamically with affinity:
//
//   - prefix affinity: the next cuboid's attributes are a prefix of a skip
//     list the worker already holds — the list is aggregated in a single
//     ordered scan (subroutine prefix-reuse), no new list needed;
//   - subset affinity: the next cuboid's attributes are a subset — a new
//     list is seeded from the held list's cells instead of the raw data
//     (subroutine subset-create);
//   - otherwise the worker gets the remaining cuboid with the most
//     dimensions (maximizing future affinity) and builds from the raw data.
//
// Workers keep the first skip list they created (a high-dimensional one,
// since scheduling is top-down) to maximize affinity hits. ASL cannot prune
// by minimum support during the scan — a cell below threshold still feeds
// supersets' cells — so its wins come purely from load balance and sort
// sharing (Table 1.1).

// aslHeld is one retained (cuboid, skip list) pair.
type aslHeld struct {
	mask lattice.Mask
	list *skiplist.List
}

// aslState is a worker's algorithm context. sortOrder tracks what the
// replica view is currently sorted by — only used by the §4.9.2 extended-
// affinity mode, which keeps the view sorted like PT does and bulk-loads
// skip lists from sorted runs.
type aslState struct {
	out       *disk.Writer
	loaded    bool
	view      []int32
	sortOrder []int
	first     *aslHeld
	prev      *aslHeld
	seed      int64
	scratch   *relation.Scratch // private to this worker's goroutine
}

// aslScheduler is the manager process: it owns the remaining-cuboid set and
// applies affinity against the lists each asking worker holds.
type aslScheduler struct {
	mu        sync.Mutex
	run       Run
	remaining map[lattice.Mask]bool
	allDone   bool
	names     []string
}

// Next implements cluster.Scheduler.
func (s *aslScheduler) Next(w *cluster.Worker) *cluster.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allDone {
		s.allDone = true
		return &cluster.Task{Label: "all", Run: func(w *cluster.Worker) error {
			st := w.State.(*aslState)
			ensureReplica(w, &st.loaded, &st.view, s.run)
			writeAll(s.run.Rel, st.view, s.run.Cond, st.out, &w.Ctr)
			return nil
		}}
	}
	if len(s.remaining) == 0 {
		return nil
	}
	st := w.State.(*aslState)
	mask, mode := s.pick(st)
	delete(s.remaining, mask)
	return &cluster.Task{
		Label: fmt.Sprintf("cuboid %s (%s)", mask.Label(s.names), mode),
		Run:   func(w *cluster.Worker) error { aslCompute(s.run, w, mask); return nil },
	}
}

// pick applies the affinity priority order and reports the chosen mode for
// tracing/tests.
func (s *aslScheduler) pick(st *aslState) (lattice.Mask, string) {
	if s.run.NoAffinity {
		m, _ := lattice.PickLargest(s.remaining)
		return m, "scratch"
	}
	if st.prev != nil {
		if m, ok := lattice.PickPrefix(s.remaining, st.prev.mask); ok {
			return m, "prefix/prev"
		}
	}
	if st.first != nil {
		if m, ok := lattice.PickPrefix(s.remaining, st.first.mask); ok {
			return m, "prefix/first"
		}
	}
	if st.prev != nil {
		if m, ok := lattice.PickSubset(s.remaining, st.prev.mask); ok {
			return m, "subset/prev"
		}
	}
	if st.first != nil {
		if m, ok := lattice.PickSubset(s.remaining, st.first.mask); ok {
			return m, "subset/first"
		}
	}
	if s.run.ExtendedAffinity && st.prev != nil {
		if m, ok := lattice.PickLongestSharedPrefix(s.remaining, st.prev.mask); ok {
			return m, "shared-prefix"
		}
	}
	m, _ := lattice.PickLargest(s.remaining)
	return m, "scratch"
}

// aslCompute executes one cuboid task on worker w.
func aslCompute(run Run, w *cluster.Worker, mask lattice.Mask) {
	st := w.State.(*aslState)
	pos := mask.Dims()

	if run.NoAffinity {
		st.prev, st.first = nil, nil
	}
	// Prefix reuse: one ordered scan over the held list.
	for _, held := range []*aslHeld{st.prev, st.first} {
		if held == nil || held.mask == mask || !mask.PrefixOf(held.mask) {
			continue
		}
		held.list.ScanPrefixGroups(len(pos), func(prefix []uint32, cs agg.State) {
			if run.Cond.Holds(cs) {
				st.out.WriteCell(mask, prefix, cs)
			}
		})
		return
	}
	// Subset create: seed a new list from a held list's cells.
	for _, held := range []*aslHeld{st.prev, st.first} {
		if held == nil || held.mask == mask || !mask.SubsetOf(held.mask) {
			continue
		}
		list := skiplist.New(st.nextSeed(), &w.Ctr)
		proj := projection(held.mask, mask)
		key := make([]uint32, len(pos))
		held.list.Scan(func(hk []uint32, cs agg.State) bool {
			for i, j := range proj {
				key[i] = hk[j]
			}
			list.MergeState(key, cs)
			return true
		})
		w.Ctr.TuplesScanned += int64(held.list.Len())
		aslEmit(run, st, mask, list)
		st.prev = &aslHeld{mask: mask, list: list}
		return
	}
	// From scratch: scan the raw data set into a fresh list. In extended-
	// affinity mode the worker's view is kept sorted (sharing prefixes
	// with the previous task's order, as in Overlap/PT) and the list is
	// bulk-loaded from the sorted runs; otherwise tuples are inserted in
	// storage order, as baseline ASL does.
	ensureReplica(w, &st.loaded, &st.view, run)
	var list *skiplist.List
	key := make([]uint32, len(pos))
	if run.ExtendedAffinity {
		st.sortOrder = SortForRootScratch(run.Rel, st.view, run.Dims, st.sortOrder, mask, &w.Ctr, st.scratch)
		builder := skiplist.NewBuilder(st.nextSeed(), &w.Ctr)
		next := make([]uint32, len(pos))
		cs := agg.NewState()
		have := false
		for _, row := range st.view {
			same := have
			for i, p := range pos {
				next[i] = run.Rel.Value(run.Dims[p], int(row))
				if same && next[i] != key[i] {
					same = false
					w.Ctr.AddCompares(int64(i + 1))
				}
			}
			if same {
				w.Ctr.AddCompares(int64(len(pos)))
				cs.Add(run.Rel.Measure(int(row)))
				continue
			}
			if have {
				builder.Append(key, cs)
			}
			copy(key, next)
			cs = agg.NewState()
			cs.Add(run.Rel.Measure(int(row)))
			have = true
		}
		if have {
			builder.Append(key, cs)
		}
		list = builder.List()
	} else {
		list = skiplist.New(st.nextSeed(), &w.Ctr)
		for _, row := range st.view {
			for i, p := range pos {
				key[i] = run.Rel.Value(run.Dims[p], int(row))
			}
			list.Add(key, run.Rel.Measure(int(row)))
		}
	}
	w.Ctr.TuplesScanned += int64(len(st.view))
	aslEmit(run, st, mask, list)
	held := &aslHeld{mask: mask, list: list}
	st.prev = held
	if st.first == nil {
		st.first = held
	}
}

// aslEmit writes a cuboid's qualifying cells breadth-first from its sorted
// skip list.
func aslEmit(run Run, st *aslState, mask lattice.Mask, list *skiplist.List) {
	list.Scan(func(key []uint32, cs agg.State) bool {
		if run.Cond.Holds(cs) {
			st.out.WriteCell(mask, key, cs)
		}
		return true
	})
}

// projection maps each attribute position of sub (within sub's own dim
// list) to its index within super's dim list.
func projection(super, sub lattice.Mask) []int {
	superDims := super.Dims()
	idx := make(map[int]int, len(superDims))
	for j, p := range superDims {
		idx[p] = j
	}
	subDims := sub.Dims()
	out := make([]int, len(subDims))
	for i, p := range subDims {
		out[i] = idx[p]
	}
	return out
}

func (st *aslState) nextSeed() int64 {
	st.seed++
	return st.seed
}

// ASL runs the Affinity SkipList algorithm.
func ASL(run Run) (*Report, error) {
	if err := run.normalize(); err != nil {
		return nil, err
	}
	remaining := make(map[lattice.Mask]bool)
	for _, m := range lattice.All(len(run.Dims)) {
		remaining[m] = true
	}
	workers := cluster.NewWorkers(run.Cluster, run.Workers, func(w *cluster.Worker) {
		w.State = &aslState{
			out:     disk.NewWriter(&w.Ctr, w.StageTo(run.Sink)),
			seed:    run.Seed + int64(w.ID)<<20,
			scratch: relation.NewScratch(),
		}
	})
	sched := &aslScheduler{run: run, remaining: remaining, names: cubeNames(run)}
	chaos, failures := run.run(workers, sched)
	return finishReport(&Report{Algorithm: "ASL", Workers: workers, Makespan: cluster.Makespan(workers)}, chaos, failures)
}
