package core

import (
	"fmt"

	"icebergcube/internal/cluster"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// BPP — Breadth-first writing, Partitioned, Parallel BUC (§3.2, Fig 3.5).
//
// Pre-processing range-partitions the data set on *each* cube attribute
// into one chunk per processor (m×n chunks total; processor j keeps chunk
// R_i(j) for every attribute i). Processor j then computes the *partial*
// subtree T_Ai over R_i(j); because every cuboid in T_Ai contains attribute
// Ai and the chunks partition Ai's value ranges, partial cuboids are
// disjoint and their union (the shared sink) is the complete cuboid.
//
// Cells are written breadth-first via the BPP-BUC kernel, which is where
// the 5× I/O win over RP comes from (Fig 3.6). Load balance is better than
// RP's but degrades with skew: chunk sizes follow the value histogram of
// the partitioning attribute (§3.3, Fig 4.1).
func BPP(run Run) (*Report, error) {
	if err := run.normalize(); err != nil {
		return nil, err
	}
	rel, dims, cond := run.Rel, run.Dims, run.Cond
	n := run.Workers
	m := len(dims)

	// Pre-processing: range-partition on every cube attribute. The
	// partitioning work is done round-robin (processor i%n partitions
	// attribute i): one scan of the data set plus shipping every chunk
	// that lands on another node.
	chunks := make([][][]int32, m) // chunks[i][j] = rows of R_i(j)
	type bppState struct {
		out     *disk.Writer
		scratch *relation.Scratch // private to this worker's goroutine
	}
	workers := cluster.NewWorkers(run.Cluster, n, func(w *cluster.Worker) {
		w.State = &bppState{out: disk.NewWriter(&w.Ctr, w.StageTo(run.Sink)), scratch: relation.NewScratch()}
	})
	bytesPerRow := int64(4*rel.NumDims() + 8)
	for i := 0; i < m; i++ {
		chunks[i] = rel.RangePartition(dims[i], n)
		partitioner := workers[i%n]
		partitioner.Ctr.TuplesScanned += int64(rel.Len())
		partitioner.Ctr.BytesRead += rel.SizeBytes()
		for j, chunk := range chunks[i] {
			if j != partitioner.ID && len(chunk) > 0 {
				partitioner.Ctr.BytesSent += int64(len(chunk)) * bytesPerRow
				partitioner.Ctr.Messages++
			}
		}
	}
	// The partitioning phase is itself parallel; fold its cost into the
	// clocks before task execution starts.
	for _, w := range workers {
		w.Clock = w.Machine.Time(w.Ctr).Total()
	}

	sched := cluster.NewQueueScheduler(n)
	sched.Assign(0, &cluster.Task{
		Label: "all",
		Run: func(w *cluster.Worker) error {
			// The "all" aggregate only needs one pass over any full
			// partitioning of the data; use attribute 0's local chunks
			// (their union is R). Each worker could do its own share;
			// charging worker 0 with the merge keeps it simple and
			// cheap, as the paper notes.
			view := rel.Identity()
			writeAll(rel, view, cond, w.State.(*bppState).out, &w.Ctr)
			return nil
		},
	})
	names := cubeNames(run)
	for i := 0; i < m; i++ {
		sub := lattice.FullSubtree(lattice.MaskOf(i), m)
		for j := 0; j < n; j++ {
			i, j := i, j
			chunk := chunks[i][j]
			sched.Assign(j, &cluster.Task{
				Label: fmt.Sprintf("chunk R_%s(%d)", names[i], j),
				Run: func(w *cluster.Worker) error {
					if len(chunk) == 0 {
						return nil
					}
					s := w.State.(*bppState)
					w.Ctr.BytesRead += int64(len(chunk)) * bytesPerRow
					view := append(s.scratch.Int32s(len(chunk)), chunk...)
					rel.SortViewScratch(view, []int{dims[i]}, &w.Ctr, s.scratch)
					RunSubtreeScratch(rel, view, dims, sub, cond, s.out, &w.Ctr, s.scratch)
					s.scratch.PutInt32s(view)
					return nil
				},
			})
		}
	}
	chaos, failures := run.run(workers, sched)
	return finishReport(&Report{Algorithm: "BPP", Workers: workers, Makespan: cluster.Makespan(workers)}, chaos, failures)
}
