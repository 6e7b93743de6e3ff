// Package core implements the paper's contribution: the parallel
// iceberg-cube algorithms RP, BPP, ASL, PT and AHT (Chapter 3), the
// sequential BUC kernels they share, and the hash-tree algorithm (§3.5.1).
// All algorithms compute the same iceberg cube — every cell of every
// group-by of the chosen dimensions whose aggregate state satisfies the
// iceberg condition — and differ, exactly as in Table 1.1, in writing
// strategy, task definition, load balancing, lattice traversal direction,
// and data decomposition.
package core

import (
	"errors"
	"fmt"

	"icebergcube/internal/agg"
	"icebergcube/internal/cluster"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/hashtree"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// Run specifies one iceberg-cube computation on the (simulated) cluster.
type Run struct {
	// Rel is the input relation; Dims selects and orders the cube
	// dimensions (indices into Rel). Cuboid masks use positions within
	// Dims: bit i ⇔ Dims[i].
	Rel  *relation.Relation
	Dims []int
	// Cond is the iceberg condition (HAVING); typically agg.MinSupport.
	Cond agg.Condition
	// Workers is the number of cluster nodes to use.
	Workers int
	// Cluster supplies machine specs; defaults to the paper's baseline
	// PIII-500/Ethernet nodes.
	Cluster cost.Cluster
	// Sink optionally receives every emitted cell (tests attach a
	// results.Set); nil discards cells after accounting them.
	Sink disk.CellSink
	// Parallel selects the goroutine-per-worker runner instead of the
	// deterministic virtual-time runner.
	Parallel bool
	// Seed feeds the skip lists' level coins and any sampling.
	Seed int64
	// TaskRatio is PT's tasks-per-worker division stop parameter; the
	// paper uses 32 (§3.4).
	TaskRatio int
	// NoAffinity disables ASL's prefix/subset affinity (every cuboid is
	// built from the raw data) — an ablation knob quantifying how much
	// §3.3.2's sort sharing buys.
	NoAffinity bool
	// ExtendedAffinity enables the §4.9.2 improvement: when neither
	// prefix nor subset affinity applies, ASL hands out the remaining
	// cuboid with the longest shared sort prefix (instead of simply the
	// largest), folding Overlap's sort-order overlap into the scheduler.
	ExtendedAffinity bool
	// MixedHash enables the §4.9.2 AHT improvement: a multiplicative
	// mixing hash over the whole key instead of the naive MOD
	// (bit-concatenation) hash, reducing bucket collisions on skewed
	// data.
	MixedHash bool
	// Chaos, when set, runs the computation under the deterministic fault
	// plan (worker deaths, stragglers, task memory budgets) instead of the
	// fault-free runners. Task output is committed exactly once, so the
	// sink still receives the fault-free cube as long as one worker
	// survives.
	Chaos *cluster.ChaosPlan
}

func (r *Run) normalize() error {
	if r.Rel == nil {
		return fmt.Errorf("core: Run.Rel is nil")
	}
	if len(r.Dims) == 0 {
		return fmt.Errorf("core: Run.Dims is empty")
	}
	if len(r.Dims) > lattice.MaxDims {
		return fmt.Errorf("core: %d cube dimensions exceeds the supported maximum %d", len(r.Dims), lattice.MaxDims)
	}
	seen := make(map[int]bool)
	for _, d := range r.Dims {
		if d < 0 || d >= r.Rel.NumDims() {
			return fmt.Errorf("core: cube dimension %d out of range (relation has %d)", d, r.Rel.NumDims())
		}
		if seen[d] {
			return fmt.Errorf("core: cube dimension %d listed twice", d)
		}
		seen[d] = true
	}
	if r.Cond == nil {
		r.Cond = agg.MinSupport(1)
	}
	if r.Workers <= 0 {
		r.Workers = 1
	}
	if len(r.Cluster.Machines) == 0 {
		r.Cluster = cost.BaselineCluster(r.Workers)
	}
	if r.TaskRatio <= 0 {
		r.TaskRatio = 32
	}
	return nil
}

// Report summarizes one computation: per-worker virtual clocks and
// counters, and the makespan (the paper's "wall clock": the time the
// slowest processor finishes).
type Report struct {
	Algorithm string
	Workers   []*cluster.Worker
	Makespan  float64
	// Degraded lists tasks dropped gracefully after exhausting their
	// memory budget (the cube is missing those tasks' cells but the run
	// completed); any other task failure aborts the run with an error.
	Degraded []cluster.TaskFailure
	// Chaos reports fault-plan activity when Run.Chaos was set.
	Chaos *cluster.ChaosReport
}

// Loads returns per-worker virtual clocks (Fig 4.1).
func (r *Report) Loads() []float64 { return cluster.Loads(r.Workers) }

// Totals sums all workers' counters.
func (r *Report) Totals() cost.Counters { return cluster.TotalCounters(r.Workers) }

// WriteIOSeconds returns the summed simulated disk time spent *writing the
// cuboids* (output bytes plus stream-switch seeks) — exactly the quantity
// Fig 3.6 plots, excluding data-set reads.
func (r *Report) WriteIOSeconds() float64 {
	total := 0.0
	for _, w := range r.Workers {
		m := w.Machine
		total += float64(w.Ctr.BytesWritten)/m.DiskBytesPerSec + float64(w.Ctr.Seeks)*m.DiskSeekSec
	}
	return total
}

// run drives the scheduler with the configured runner.
func (r *Run) run(workers []*cluster.Worker, sched cluster.Scheduler) (*cluster.ChaosReport, []cluster.TaskFailure) {
	if r.Chaos != nil {
		return cluster.RunChaos(workers, sched, *r.Chaos)
	}
	if r.Parallel {
		return nil, cluster.RunParallel(workers, sched)
	}
	return nil, cluster.RunVirtual(workers, sched)
}

// finishReport folds a runner's outcome into the report: memory-exhausted
// tasks become graceful degradation (recorded, run continues), any other
// task failure is a hard error.
func finishReport(rep *Report, chaos *cluster.ChaosReport, failures []cluster.TaskFailure) (*Report, error) {
	rep.Chaos = chaos
	for _, f := range failures {
		if errors.Is(f.Err, hashtree.ErrMemoryExhausted) {
			rep.Degraded = append(rep.Degraded, f)
			continue
		}
		return rep, fmt.Errorf("core: %s task %q on worker %d: %w", rep.Algorithm, f.Label, f.Worker, f.Err)
	}
	return rep, nil
}

// writeAll aggregates the full input and writes the "all" cell (mask 0),
// which every algorithm handles outside its task decomposition (§3's
// simplifying note). It runs on worker 0.
func writeAll(rel *relation.Relation, view []int32, cond agg.Condition, out *disk.Writer, ctr *cost.Counters) {
	st := agg.NewState()
	for _, row := range view {
		st.Add(rel.Measure(int(row)))
	}
	ctr.TuplesScanned += int64(len(view))
	if cond.Holds(st) {
		out.WriteCell(0, nil, st)
	}
}

// chargeLoad accounts a worker's one-time read of its (replicated) copy of
// the data set.
func chargeLoad(w *cluster.Worker, rel *relation.Relation) {
	w.Ctr.BytesRead += rel.SizeBytes()
}
