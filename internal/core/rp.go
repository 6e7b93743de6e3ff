package core

import (
	"fmt"

	"icebergcube/internal/cluster"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// RP — Replicated Parallel BUC (§3.1, Fig 3.1/3.2). The data set is
// replicated on every node; the m subtrees of the BUC processing tree
// rooted at each dimension are assigned to processors round-robin; each
// task runs the original depth-first-writing BUC. Simple, near-zero
// overhead over sequential BUC, but coarse uneven tasks give it the weakest
// load balance of the suite (Table 1.1, Fig 4.1).
func RP(run Run) (*Report, error) {
	if err := run.normalize(); err != nil {
		return nil, err
	}
	rel, dims, cond := run.Rel, run.Dims, run.Cond

	type rpState struct {
		out     *disk.Writer
		view    []int32
		loaded  bool
		scratch *relation.Scratch // private to this worker's goroutine
	}
	workers := cluster.NewWorkers(run.Cluster, run.Workers, func(w *cluster.Worker) {
		w.State = &rpState{out: disk.NewWriter(&w.Ctr, w.StageTo(run.Sink)), scratch: relation.NewScratch()}
	})

	sched := cluster.NewQueueScheduler(run.Workers)
	tasks := make([]*cluster.Task, 0, len(dims)+1)
	tasks = append(tasks, &cluster.Task{
		Label: "all",
		Run: func(w *cluster.Worker) error {
			s := w.State.(*rpState)
			ensureReplica(w, &s.loaded, &s.view, run)
			writeAll(rel, s.view, cond, s.out, &w.Ctr)
			return nil
		},
	})
	for p := range dims {
		p := p
		tasks = append(tasks, &cluster.Task{
			Label: fmt.Sprintf("subtree T_%s", lattice.MaskOf(p).Label(cubeNames(run))),
			Run: func(w *cluster.Worker) error {
				s := w.State.(*rpState)
				ensureReplica(w, &s.loaded, &s.view, run)
				BUCSubtreeScratch(rel, s.view, dims, p, cond, s.out, &w.Ctr, s.scratch)
				return nil
			},
		})
	}
	sched.AssignRoundRobin(tasks)
	chaos, failures := run.run(workers, sched)
	return finishReport(&Report{Algorithm: "RP", Workers: workers, Makespan: cluster.Makespan(workers)}, chaos, failures)
}

// ensureReplica charges the one-time load of the replicated data set and
// materializes the worker's private row view the first time it is needed.
func ensureReplica(w *cluster.Worker, loaded *bool, view *[]int32, run Run) {
	if *loaded {
		return
	}
	chargeLoad(w, run.Rel)
	*view = run.Rel.Identity()
	*loaded = true
}

// cubeNames resolves the cube dimensions' display names.
func cubeNames(run Run) []string {
	names := make([]string, len(run.Dims))
	for i, d := range run.Dims {
		names[i] = run.Rel.Name(d)
	}
	return names
}
