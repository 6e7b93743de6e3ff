// Package online implements POL, the paper's Parallel OnLine aggregation
// algorithm (Chapter 5): answering a single iceberg group-by over a data
// set too large for any node's memory, with an instant first answer that
// refines progressively as more blocks are processed (the
// Hellerstein/Haas/Wang online-aggregation framework).
//
// The design (§5.3): the raw data is range-partitioned across processors
// unsorted; the *skip list* holding the group-by's cells is range-
// partitioned too, by key boundaries estimated from an initial sample.
// Computation is step-synchronous: each step, every processor loads one
// buffer-sized block from its local partition and splits it into n chunks
// by skip-list ownership, yielding the n×n task matrix of Table 5.1.
// Processor Pj is assigned row j (fetching remote chunks over the
// network, starting with its local chunk and wrapping so data requests
// spread across nodes); an early finisher steals untouched tasks whose
// chunk is local, builds a fresh skip list, and ships it to the owner to
// merge. A barrier separates steps.
package online

import (
	"fmt"
	"sort"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/cluster"
	"icebergcube/internal/cost"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
	"icebergcube/internal/skiplist"
)

// Query describes one online iceberg group-by.
type Query struct {
	// Rel is the input relation; Dims the GROUP BY attributes (indices
	// into Rel).
	Rel  *relation.Relation
	Dims []int
	// Cond is the iceberg condition on the final answer.
	Cond agg.Condition
	// Workers is the number of cluster nodes; Cluster supplies machine
	// specs (defaults to the paper's PIII-500/Ethernet baseline).
	Workers int
	Cluster cost.Cluster
	// BufferTuples is the per-processor block size per step (the paper's
	// experiments use 8000, §5.4).
	BufferTuples int
	// SampleTuples sizes the boundary-estimation sample (default 1024).
	SampleTuples int
	// Seed drives skip-list coin flips and sampling.
	Seed int64
	// Progress, if set, receives a snapshot after every step — the
	// periodic timer responses of §5.3.2.
	Progress func(Snapshot)
	// StepTimeout bounds every blocking receive and collective in
	// DistributedRun, so a dead rank surfaces as a typed error within one
	// step instead of hanging the world. <= 0 defaults to 10s.
	StepTimeout time.Duration
}

// Snapshot is one progressive answer.
type Snapshot struct {
	// Step is the 1-based step index; Fraction the share of all tuples
	// processed so far.
	Step     int
	Fraction float64
	// VirtualSeconds is the simulated elapsed time at the barrier.
	VirtualSeconds float64
	// Cells is the number of distinct cells seen so far;
	// QualifyingCells counts cells whose *scaled* state (counts and sums
	// divided by Fraction — the running estimate of their final value)
	// already satisfies the query condition.
	Cells           int
	QualifyingCells int
}

// Result is the completed answer.
type Result struct {
	// Cells holds the qualifying cells of the single cuboid (its mask
	// covers all query dimensions).
	Cells *results.Set
	// Mask is that cuboid's mask.
	Mask lattice.Mask
	// Makespan is the simulated completion time; Steps the number of
	// synchronized steps; Workers the per-node stats.
	Makespan float64
	Steps    int
	Workers  []*cluster.Worker
	// Attempts is how many world incarnations RunWithRecovery needed
	// (1 for a clean first run; plain runs leave it 0).
	Attempts int
}

// polWorker is one processor's state.
type polWorker struct {
	w     *cluster.Worker
	local []int32 // unprocessed rows of this node's data partition
	next  int     // cursor into local
	list  *skiplist.List
}

// Run executes the query to completion.
func Run(q Query) (*Result, error) {
	if q.Rel == nil {
		return nil, fmt.Errorf("online: Query.Rel is nil")
	}
	if len(q.Dims) == 0 {
		return nil, fmt.Errorf("online: Query.Dims is empty")
	}
	for _, d := range q.Dims {
		if d < 0 || d >= q.Rel.NumDims() {
			return nil, fmt.Errorf("online: dimension %d out of range", d)
		}
	}
	if q.Cond == nil {
		q.Cond = agg.MinSupport(1)
	}
	if q.Workers <= 0 {
		q.Workers = 1
	}
	if len(q.Cluster.Machines) == 0 {
		q.Cluster = cost.BaselineCluster(q.Workers)
	}
	if q.BufferTuples <= 0 {
		q.BufferTuples = 8000
	}
	if q.SampleTuples <= 0 {
		q.SampleTuples = 1024
	}
	n := q.Workers
	rel := q.Rel
	bytesPerRow := int64(4*rel.NumDims() + 8)

	// Raw data partitions (unsorted, §5.3.1).
	parts := rel.BlockPartition(n)
	workers := make([]*polWorker, n)
	clWorkers := cluster.NewWorkers(q.Cluster, n, nil)
	for i := range workers {
		workers[i] = &polWorker{
			w:     clWorkers[i],
			local: parts[i],
			list:  skiplist.New(q.Seed+int64(i), &clWorkers[i].Ctr),
		}
	}

	// The manager samples to set the skip-list partition boundaries
	// (§5.3.1); the sample cost is charged to worker 0, which hosts the
	// manager as in the CUBE experiments (§4.2).
	boundaries := sampleBoundaries(rel, q.Dims, n, q.SampleTuples)
	clWorkers[0].Ctr.TuplesScanned += int64(q.SampleTuples)
	clWorkers[0].Advance(cost.Counters{})

	key := make([]uint32, len(q.Dims))
	// Hoist the dimension columns once: keyOf runs per tuple per step.
	keyCols := make([][]uint32, len(q.Dims))
	for i, d := range q.Dims {
		keyCols[i] = rel.Column(d)
	}
	keyOf := func(row int32, dst []uint32) {
		for i, col := range keyCols {
			dst[i] = col[row]
		}
	}

	step := 0
	total := rel.Len()
	processed := 0
	for {
		// Load one block per processor and split it into ownership
		// chunks: chunks[owner][locatedOn].
		chunks := make([][][]int32, n)
		for j := range chunks {
			chunks[j] = make([][]int32, n)
		}
		anyData := false
		for i, pw := range workers {
			end := pw.next + q.BufferTuples
			if end > len(pw.local) {
				end = len(pw.local)
			}
			block := pw.local[pw.next:end]
			pw.next = end
			if len(block) == 0 {
				continue
			}
			anyData = true
			processed += len(block)
			snap := pw.w.Ctr
			pw.w.Ctr.BytesRead += int64(len(block)) * bytesPerRow
			pw.w.Ctr.TuplesScanned += int64(len(block))
			for _, row := range block {
				keyOf(row, key)
				owner := ownerOf(key, boundaries)
				chunks[owner][i] = append(chunks[owner][i], row)
			}
			pw.w.Advance(snap)
		}
		if !anyData {
			break
		}
		step++
		runStep(q, workers, chunks, bytesPerRow, keyOf)

		// The periodic timer fires at least once per step: the manager
		// collects current results from every worker and refreshes the
		// display (§5.3.2). Each worker scans its skip-list partition
		// and ships the qualifying cells — this is the per-step overhead
		// that makes small buffers slow (Fig 5.4).
		snap := snapshot(q, workers, step, processed, total)

		// Barrier: every processor waits for the slowest (§5.3.2), with
		// a synchronization round-trip to the manager.
		bar := 0.0
		for _, pw := range workers {
			s := pw.w.Ctr
			pw.w.Ctr.Messages += 2
			pw.w.Advance(s)
			if pw.w.Clock > bar {
				bar = pw.w.Clock
			}
		}
		for _, pw := range workers {
			pw.w.Clock = bar
		}
		snap.VirtualSeconds = bar
		if q.Progress != nil {
			q.Progress(snap)
		}
	}

	// Collect the final exact answer.
	mask := lattice.Mask(0)
	for p := range q.Dims {
		mask |= 1 << uint(p)
	}
	cells := results.NewSet()
	for _, pw := range workers {
		pw.list.Scan(func(k []uint32, st agg.State) bool {
			if q.Cond.Holds(st) {
				cells.WriteCell(mask, k, st)
			}
			return true
		})
	}
	return &Result{
		Cells:    cells,
		Mask:     mask,
		Makespan: cluster.Makespan(clWorkers),
		Steps:    step,
		Workers:  clWorkers,
	}, nil
}

// runStep schedules the step's n×n task matrix in virtual time: the
// earliest-clock processor with work left runs next; it prefers its own
// row (starting at its local chunk, wrapping), then steals an untouched
// task whose chunk is local to it.
func runStep(q Query, workers []*polWorker, chunks [][][]int32, bytesPerRow int64, keyOf func(int32, []uint32)) {
	n := len(workers)
	done := make([][]bool, n)
	remaining := 0
	for j := range done {
		done[j] = make([]bool, n)
		for i := range done[j] {
			if len(chunks[j][i]) == 0 {
				done[j][i] = true
			} else {
				remaining++
			}
		}
	}
	key := make([]uint32, len(q.Dims))
	listSeed := q.Seed + 7777

	for remaining > 0 {
		// Earliest-clock worker that can still do something.
		pick := -1
		var pickJ, pickI int
		for w := 0; w < n; w++ {
			j, i, ok := nextTask(done, w)
			if !ok {
				continue
			}
			if pick < 0 || workers[w].w.Clock < workers[pick].w.Clock {
				pick, pickJ, pickI = w, j, i
			}
		}
		if pick < 0 {
			break // all remaining tasks belong to nobody reachable
		}
		pw := workers[pick]
		chunk := chunks[pickJ][pickI]
		done[pickJ][pickI] = true
		remaining--

		snap := pw.w.Ctr
		if pickI != pick {
			// Fetch the chunk from the node it resides on.
			pw.w.Ctr.BytesSent += int64(len(chunk)) * bytesPerRow
			pw.w.Ctr.Messages += 2
		}
		if pickJ == pick {
			// Own task: update the local skip-list partition.
			for _, row := range chunk {
				keyOf(row, key)
				pw.list.Add(key, q.Rel.Measure(int(row)))
			}
			pw.w.Ctr.TuplesScanned += int64(len(chunk))
			pw.w.Advance(snap)
			continue
		}
		// Stolen task: build a fresh list locally, ship it to the owner,
		// who merges it into its partition (§5.3.2).
		listSeed++
		tmp := skiplist.New(listSeed, &pw.w.Ctr)
		for _, row := range chunk {
			keyOf(row, key)
			tmp.Add(key, q.Rel.Measure(int(row)))
		}
		pw.w.Ctr.TuplesScanned += int64(len(chunk))
		pw.w.Ctr.BytesSent += tmp.SizeBytes()
		pw.w.Ctr.Messages++
		pw.w.Advance(snap)

		owner := workers[pickJ]
		osnap := owner.w.Ctr
		owner.list.Merge(tmp)
		owner.w.Advance(osnap)
	}
}

// nextTask returns the task worker w would take: the next unfinished task
// of its own row in wrap order starting at its local chunk, else an
// untouched task of another row whose chunk is local to w (stealing).
func nextTask(done [][]bool, w int) (j, i int, ok bool) {
	n := len(done)
	for k := 0; k < n; k++ {
		i := (w + k) % n
		if !done[w][i] {
			return w, i, true
		}
	}
	for j := 0; j < n; j++ {
		if j != w && !done[j][w] {
			return j, w, true
		}
	}
	return 0, 0, false
}

// ownerOf returns the index of the skip-list partition whose key range
// contains key (boundaries are the n-1 sorted lower bounds of partitions
// 1..n-1).
func ownerOf(key []uint32, boundaries [][]uint32) int {
	// Linear scan: there are at most workers-1 boundaries, and this runs
	// once per tuple per step — a closure-based binary search costs more
	// than it saves at this size.
	for i, b := range boundaries {
		if compareKeys(b, key) > 0 {
			return i
		}
	}
	return len(boundaries)
}

func compareKeys(a, b []uint32) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	if len(a) == len(b) {
		return 0
	}
	return -1
}

// sampleBoundaries draws an evenly spaced sample of the group-by keys,
// sorts it, and returns the n-1 quantile keys delimiting the skip-list
// partitions.
func sampleBoundaries(rel *relation.Relation, dims []int, n, sampleSize int) [][]uint32 {
	if n <= 1 {
		return nil
	}
	total := rel.Len()
	if total == 0 {
		return make([][]uint32, n-1)
	}
	if sampleSize > total {
		sampleSize = total
	}
	stride := total / sampleSize
	if stride == 0 {
		stride = 1
	}
	sample := make([][]uint32, 0, sampleSize)
	for row := 0; row < total && len(sample) < sampleSize; row += stride {
		key := make([]uint32, len(dims))
		for i, d := range dims {
			key[i] = rel.Value(d, row)
		}
		sample = append(sample, key)
	}
	sort.Slice(sample, func(a, b int) bool { return compareKeys(sample[a], sample[b]) < 0 })
	bounds := make([][]uint32, n-1)
	for i := 1; i < n; i++ {
		bounds[i-1] = sample[i*len(sample)/n]
	}
	return bounds
}

// snapshot builds the progressive answer after a step: cells are scaled by
// the processed fraction to estimate their final aggregates (the sampling
// estimator of §5.2 — blocks are samples of the unprocessed remainder).
// Each worker pays for scanning its skip-list partition and shipping the
// qualifying cells to the manager, so frequent refreshes have a real cost.
func snapshot(q Query, workers []*polWorker, step, processed, total int) Snapshot {
	frac := float64(processed) / float64(total)
	cells, qualifying := 0, 0
	for _, pw := range workers {
		s := pw.w.Ctr
		local := 0
		pw.list.Scan(func(_ []uint32, st agg.State) bool {
			cells++
			scaled := st
			scaled.Count = int64(float64(st.Count) / frac)
			scaled.Sum = st.Sum / frac
			if q.Cond.Holds(scaled) {
				local++
			}
			return true
		})
		qualifying += local
		pw.w.Ctr.TuplesScanned += int64(pw.list.Len())
		pw.w.Ctr.BytesSent += int64(local) * int64(4*len(q.Dims)+16)
		pw.w.Ctr.Messages++
		pw.w.Advance(s)
	}
	return Snapshot{
		Step:            step,
		Fraction:        frac,
		Cells:           cells,
		QualifyingCells: qualifying,
	}
}
