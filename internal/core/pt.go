package core

import (
	"fmt"
	"sort"
	"sync"

	"icebergcube/internal/cluster"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// PT — Partitioned Tree (§3.4, Fig 3.10), the paper's recommended default.
// The BUC processing tree is recursively binary-divided (cutting the
// leftmost root edge, Fig 3.9) into tasks of equal node count until there
// are TaskRatio·n tasks (the paper's "32n" stop parameter — the knob that
// trades load balance against per-task pruning). Task assignment is
// top-down with prefix affinity on the subtree roots, so a worker's
// previous sort order is shared; computation inside a task is bottom-up
// BPP-BUC with pruning and breadth-first writing.

// ptState is a worker's context: its replica view stays sorted by the last
// task's root order, which is what affinity scheduling exploits.
type ptState struct {
	out       *disk.Writer
	loaded    bool
	view      []int32
	sortOrder []int // rel dims the view is currently sorted by
	prevRoot  lattice.Mask
	hasPrev   bool
	scratch   *relation.Scratch // private to this worker's goroutine
}

// ptScheduler assigns the remaining subtree whose root shares the longest
// prefix with the worker's previous root; ties go to the larger subtree.
type ptScheduler struct {
	mu      sync.Mutex
	run     Run
	tasks   []*lattice.Subtree
	used    []bool
	left    int
	allDone bool
	names   []string
}

// Next implements cluster.Scheduler.
func (s *ptScheduler) Next(w *cluster.Worker) *cluster.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.allDone {
		s.allDone = true
		return &cluster.Task{Label: "all", Run: func(w *cluster.Worker) error {
			st := w.State.(*ptState)
			ensureReplica(w, &st.loaded, &st.view, s.run)
			writeAll(s.run.Rel, st.view, s.run.Cond, st.out, &w.Ctr)
			return nil
		}}
	}
	if s.left == 0 {
		return nil
	}
	st := w.State.(*ptState)
	best := -1
	bestPrefix, bestSize := -1, -1
	for i, t := range s.tasks {
		if s.used[i] {
			continue
		}
		prefix := 0
		if st.hasPrev {
			prefix = lattice.LongestPrefixLen(st.prevRoot, t.Root)
		}
		if prefix > bestPrefix || (prefix == bestPrefix && t.Size() > bestSize) {
			best, bestPrefix, bestSize = i, prefix, t.Size()
		}
	}
	s.used[best] = true
	s.left--
	t := s.tasks[best]
	return &cluster.Task{
		Label: fmt.Sprintf("subtree rooted at %s (%d nodes)", t.Root.Label(s.names), t.Size()),
		Run:   func(w *cluster.Worker) error { ptCompute(s.run, w, t); return nil },
	}
}

// ptCompute runs one binary-division task bottom-up on worker w.
func ptCompute(run Run, w *cluster.Worker, t *lattice.Subtree) {
	st := w.State.(*ptState)
	ensureReplica(w, &st.loaded, &st.view, run)
	st.sortOrder = SortForRootScratch(run.Rel, st.view, run.Dims, st.sortOrder, t.Root, &w.Ctr, st.scratch)
	RunSubtreeScratch(run.Rel, st.view, run.Dims, t, run.Cond, st.out, &w.Ctr, st.scratch)
	st.prevRoot = t.Root
	st.hasPrev = true
}

// PT runs the Partitioned Tree algorithm.
func PT(run Run) (*Report, error) {
	if err := run.normalize(); err != nil {
		return nil, err
	}
	tasks := lattice.BinaryDivision(len(run.Dims), run.TaskRatio*run.Workers)
	// Deterministic task order: larger subtrees first (they gate the
	// makespan), then by root mask.
	sort.Slice(tasks, func(a, b int) bool {
		if tasks[a].Size() != tasks[b].Size() {
			return tasks[a].Size() > tasks[b].Size()
		}
		return tasks[a].Root < tasks[b].Root
	})
	workers := cluster.NewWorkers(run.Cluster, run.Workers, func(w *cluster.Worker) {
		w.State = &ptState{out: disk.NewWriter(&w.Ctr, w.StageTo(run.Sink)), scratch: relation.NewScratch()}
	})
	sched := &ptScheduler{
		run:   run,
		tasks: tasks,
		used:  make([]bool, len(tasks)),
		left:  len(tasks),
		names: cubeNames(run),
	}
	chaos, failures := run.run(workers, sched)
	return finishReport(&Report{Algorithm: "PT", Workers: workers, Makespan: cluster.Makespan(workers)}, chaos, failures)
}
