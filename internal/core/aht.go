package core

import (
	"fmt"
	"math/bits"
	"sync"

	"icebergcube/internal/agg"
	"icebergcube/internal/ahtable"
	"icebergcube/internal/cluster"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
)

// AHT — Affinity Hash Table (§3.5.2, Fig 3.13). Task definition and
// demand scheduling are ASL's, but cells live in a bit-packed hash table
// sized to the number of input tuples, and only *subset* affinity is
// exploited: when the next cuboid's attributes are a subset of a held
// table's, the held table is collapsed (buckets merged) instead of
// re-scanning data. There is no sorting at all — cuboids are emitted in
// bucket order (the paper post-sorts on demand only). The fixed index
// width is AHT's Achilles heel: high dimensionality or sparse data leaves
// too few bits per attribute, chains grow, and performance craters
// (Figs 4.4, 4.6).

// ahtState is a worker's context.
type ahtState struct {
	out    *disk.Writer
	loaded bool
	view   []int32
	first  *ahtHeld
	prev   *ahtHeld
	cards  []int // per-cube-position cardinalities
	bits   int   // fixed total index width
}

// planFor allocates the fixed index width across one table's attributes:
// log2(card) each, shaved until the total fits (§3.5.2).
func (st *ahtState) planFor(pos []int) []int {
	cards := make([]int, len(pos))
	for i, p := range pos {
		cards[i] = st.cards[p]
	}
	return ahtable.PlanBits(cards, st.bits)
}

type ahtHeld struct {
	mask  lattice.Mask
	table *ahtable.Table
}

// ahtScheduler mirrors ASL's manager with subset affinity only.
type ahtScheduler struct {
	mu        sync.Mutex
	run       Run
	remaining map[lattice.Mask]bool
	allDone   bool
	names     []string
}

// Next implements cluster.Scheduler.
func (s *ahtScheduler) Next(w *cluster.Worker) *cluster.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allDone {
		s.allDone = true
		return &cluster.Task{Label: "all", Run: func(w *cluster.Worker) error {
			st := w.State.(*ahtState)
			ensureReplica(w, &st.loaded, &st.view, s.run)
			writeAll(s.run.Rel, st.view, s.run.Cond, st.out, &w.Ctr)
			return nil
		}}
	}
	if len(s.remaining) == 0 {
		return nil
	}
	st := w.State.(*ahtState)
	mask, mode := s.pick(st)
	delete(s.remaining, mask)
	return &cluster.Task{
		Label: fmt.Sprintf("cuboid %s (%s)", mask.Label(s.names), mode),
		Run:   func(w *cluster.Worker) error { ahtCompute(s.run, w, mask); return nil },
	}
}

func (s *ahtScheduler) pick(st *ahtState) (lattice.Mask, string) {
	if st.prev != nil {
		if m, ok := lattice.PickSubset(s.remaining, st.prev.mask); ok {
			return m, "collapse/prev"
		}
	}
	if st.first != nil {
		if m, ok := lattice.PickSubset(s.remaining, st.first.mask); ok {
			return m, "collapse/first"
		}
	}
	m, _ := lattice.PickLargest(s.remaining)
	return m, "scratch"
}

// ahtCompute executes one cuboid task: build (or collapse into) the
// cuboid's hash table, then emit its qualifying cells.
func ahtCompute(run Run, w *cluster.Worker, mask lattice.Mask) {
	st := w.State.(*ahtState)
	pos := mask.Dims()

	for _, held := range []*ahtHeld{st.prev, st.first} {
		if held == nil || held.mask == mask || !mask.SubsetOf(held.mask) {
			continue
		}
		// Collapse: merge the held table's buckets onto the surviving
		// attributes. The surviving attributes reclaim the freed index
		// bits (the paper re-shrinks bits "appropriately" against the
		// fixed table size), so the collapse is a projection of the held
		// cells under a re-planned index of the same total width.
		table := ahtable.NewWithHash(pos, st.planFor(pos), run.MixedHash, &w.Ctr)
		proj := projection(held.mask, mask)
		key := make([]uint32, len(pos))
		held.table.Scan(func(hk []uint32, cs agg.State) bool {
			for i, j := range proj {
				key[i] = hk[j]
			}
			table.MergeState(key, cs)
			return true
		})
		w.Ctr.TuplesScanned += int64(held.table.Len())
		ahtEmit(run, st, mask, table)
		st.prev = &ahtHeld{mask: mask, table: table}
		return
	}

	ensureReplica(w, &st.loaded, &st.view, run)
	table := ahtable.NewWithHash(pos, st.planFor(pos), run.MixedHash, &w.Ctr)
	key := make([]uint32, len(pos))
	for _, row := range st.view {
		for i, p := range pos {
			key[i] = run.Rel.Value(run.Dims[p], int(row))
		}
		table.Add(key, run.Rel.Measure(int(row)))
	}
	w.Ctr.TuplesScanned += int64(len(st.view))
	ahtEmit(run, st, mask, table)
	held := &ahtHeld{mask: mask, table: table}
	st.prev = held
	if st.first == nil {
		st.first = held
	}
}

// ahtEmit writes a cuboid's qualifying cells in bucket order.
func ahtEmit(run Run, st *ahtState, mask lattice.Mask, table *ahtable.Table) {
	table.Scan(func(key []uint32, cs agg.State) bool {
		if run.Cond.Holds(cs) {
			st.out.WriteCell(mask, key, cs)
		}
		return true
	})
}

// AHT runs the Affinity Hash Table algorithm. TableBits (the fixed index
// width) defaults to ⌈log2(#tuples)⌉, matching the paper's choice of one
// bucket per input tuple (§4.1).
func AHT(run Run) (*Report, error) {
	return AHTWithBits(run, 0)
}

// AHTWithBits runs AHT with an explicit index width (the Fig 4.4 experiment
// grows the table 10× for 13 dimensions; the hash-width ablation sweeps
// it).
func AHTWithBits(run Run, tableBits int) (*Report, error) {
	if err := run.normalize(); err != nil {
		return nil, err
	}
	if tableBits <= 0 {
		tableBits = bits.Len(uint(run.Rel.Len()))
		if tableBits < 4 {
			tableBits = 4
		}
	}
	cards := make([]int, len(run.Dims))
	for i, d := range run.Dims {
		cards[i] = run.Rel.Card(d)
	}

	remaining := make(map[lattice.Mask]bool)
	for _, m := range lattice.All(len(run.Dims)) {
		remaining[m] = true
	}
	workers := cluster.NewWorkers(run.Cluster, run.Workers, func(w *cluster.Worker) {
		w.State = &ahtState{out: disk.NewWriter(&w.Ctr, w.StageTo(run.Sink)), cards: cards, bits: tableBits}
	})
	sched := &ahtScheduler{run: run, remaining: remaining, names: cubeNames(run)}
	chaos, failures := run.run(workers, sched)
	return finishReport(&Report{Algorithm: "AHT", Workers: workers, Makespan: cluster.Makespan(workers)}, chaos, failures)
}
