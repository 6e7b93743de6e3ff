// Package cluster simulates the paper's PC cluster. Workers stand in for
// cluster nodes; a Scheduler stands in for the manager process that hands
// out tasks on demand (§3.3.2). Three runners execute the same scheduler:
//
//   - RunVirtual is a deterministic event loop — the worker with the
//     smallest virtual clock requests its next task, the task executes for
//     real, and the worker's clock advances by the cost-model time of the
//     operations the task performed. This mirrors MPI demand scheduling
//     exactly (the least-loaded worker asks first) while making every
//     experiment reproducible and independent of the host's core count.
//
//   - RunParallel executes the same tasks on one goroutine per worker for
//     genuine parallelism, still accounting virtual time for reporting.
//
//   - RunChaos (chaos.go) is RunVirtual under a deterministic fault plan:
//     workers die mid-task or straggle, the manager reassigns their work
//     to survivors, and task output commits exactly once.
//
// Task output flows through a per-worker Stage (a buffered sink committed
// only when the task completes), which is what makes re-executing a task —
// after a death or a speculative lease expiry — idempotent: a task's cells
// reach the final sink exactly once no matter how many workers ran it.
//
// All runners report per-worker Counters and virtual clocks; the makespan
// (max clock) is the "wall clock" the paper's figures plot.
package cluster

import (
	"fmt"
	"sync"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/lattice"
)

// Task is one schedulable unit of work. Run executes on the given worker
// and returns an error when the task fails; a failed task's staged output
// is discarded and the failure is reported to the caller (see TaskFailure)
// instead of aborting the other workers.
type Task struct {
	// Label names the task for traces and tests (e.g. "cuboid A,B,C").
	Label string
	// Run executes the task on the given worker.
	Run func(w *Worker) error
}

// TaskFailure records one task that failed during a run.
type TaskFailure struct {
	// Label is the failed task's label.
	Label string
	// Worker is the ID of the worker the failure occurred on.
	Worker int
	// Err is the task's error.
	Err error
}

// Worker models one cluster node.
type Worker struct {
	// ID is the worker's rank, 0-based.
	ID int
	// Machine is the hardware spec the cost model charges against.
	Machine cost.Machine
	// Ctr accumulates the operations this worker performed.
	Ctr cost.Counters
	// Clock is the worker's virtual time in seconds.
	Clock float64
	// Tasks counts tasks executed.
	Tasks int
	// State carries algorithm-specific per-worker context (kept skip
	// lists, previous sort order, local disk chunks).
	State any
	// stage buffers the current task's cell output until the runner
	// commits it (see StageTo).
	stage *Stage
}

// StageTo installs (once) and returns the worker's staging sink targeting
// the run's final sink. Algorithms write cells through the returned stage;
// runners commit it after each successfully completed task, which is what
// allows the chaos runner to discard a dead worker's half-finished task
// and re-execute it elsewhere without double-counting cells.
func (w *Worker) StageTo(sink disk.CellSink) *Stage {
	if w.stage == nil {
		w.stage = &Stage{target: sink}
	}
	return w.stage
}

// Advance charges the counter delta since snapshot to the worker's clock
// and returns the consumed breakdown.
func (w *Worker) Advance(snapshot cost.Counters) cost.Breakdown {
	delta := w.Ctr.Sub(snapshot)
	b := w.Machine.Time(delta)
	w.Clock += b.Total()
	return b
}

// Sleep advances the worker's clock without performing work (used to model
// waiting for a remote chunk or a synchronization barrier).
func (w *Worker) Sleep(seconds float64) { w.Clock += seconds }

// Stage is a buffered CellSink: cells accumulate until the runner either
// commits them to the target sink or discards them (task re-executed
// elsewhere, task failed, worker died mid-task). A stage belongs to one
// worker and is written only by the goroutine running that worker's task;
// commit/discard are exactly-once because the runner invokes them once per
// task.
type Stage struct {
	target disk.CellSink
	cells  []stagedCell
	bytes  int64
	// keys stores every staged cell's key copy back to back, reset (not
	// freed) on commit/discard, so steady-state staging stops allocating
	// one slice per cell. Cell key slices keep pointing into whatever
	// backing array they were carved from, so growth mid-task is safe; no
	// downstream sink retains the slice past its WriteCell call.
	keys []uint32
}

type stagedCell struct {
	mask lattice.Mask
	key  []uint32
	st   agg.State
}

// WriteCell implements disk.CellSink: the cell is buffered, not yet final.
func (s *Stage) WriteCell(m lattice.Mask, key []uint32, st agg.State) {
	off := len(s.keys)
	s.keys = append(s.keys, key...)
	s.cells = append(s.cells, stagedCell{mask: m, key: s.keys[off : off+len(key) : off+len(key)], st: st})
	s.bytes += disk.CellBytes(len(key))
}

// Bytes returns the staged (uncommitted) output size, the quantity a task
// memory budget is charged against.
func (s *Stage) Bytes() int64 { return s.bytes }

// Commit flushes the staged cells to the target sink and resets the stage.
func (s *Stage) Commit() {
	if s.target != nil {
		for _, c := range s.cells {
			s.target.WriteCell(c.mask, c.key, c.st)
		}
	}
	s.reset()
}

// Discard drops the staged cells without committing them.
func (s *Stage) Discard() { s.reset() }

func (s *Stage) reset() {
	s.cells = s.cells[:0]
	s.keys = s.keys[:0]
	s.bytes = 0
}

// Scheduler hands out tasks on demand. Implementations see which worker is
// asking (and its State) so they can apply affinity. Next returns nil when
// the worker should stop.
type Scheduler interface {
	Next(w *Worker) *Task
}

// Reassigner is implemented by schedulers that pre-assign tasks to
// specific workers (static queues): when a worker dies, the fault-tolerant
// runner drains its undelivered tasks for reassignment to survivors.
// Demand-driven schedulers need not implement it — their remaining tasks
// flow to whichever live worker asks next.
type Reassigner interface {
	// Reassign removes and returns the tasks still queued for the given
	// (dead) worker.
	Reassign(worker int) []*Task
}

// NewWorkers builds n workers on the given cluster spec, invoking setup
// (may be nil) on each.
func NewWorkers(cl cost.Cluster, n int, setup func(w *Worker)) []*Worker {
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = &Worker{ID: i, Machine: cl.Machine(i)}
		if setup != nil {
			setup(ws[i])
		}
	}
	return ws
}

// runTask executes one task on w, charges its cost, and returns the task's
// error together with the elapsed virtual seconds.
func runTask(w *Worker, t *Task) (float64, error) {
	snap := w.Ctr
	err := t.Run(w)
	w.Tasks++
	b := w.Advance(snap)
	return b.Total(), err
}

// commitOrFail finalizes one executed task on w: a failed task's staged
// cells are discarded and the failure recorded; a successful task commits.
func commitOrFail(w *Worker, t *Task, err error, failures *[]TaskFailure) {
	if err != nil {
		if w.stage != nil {
			w.stage.Discard()
		}
		*failures = append(*failures, TaskFailure{Label: t.Label, Worker: w.ID, Err: err})
		return
	}
	if w.stage != nil {
		w.stage.Commit()
	}
}

// RunVirtual drives the scheduler to completion in deterministic virtual
// time and returns the failed tasks (nil when everything succeeded).
func RunVirtual(workers []*Worker, sched Scheduler) []TaskFailure {
	var failures []TaskFailure
	done := make([]bool, len(workers))
	remaining := len(workers)
	for remaining > 0 {
		// Pick the live worker with the smallest clock (ties to the
		// lowest ID) — the one whose task request reaches the manager
		// first.
		min := -1
		for i, w := range workers {
			if done[i] {
				continue
			}
			if min < 0 || w.Clock < workers[min].Clock {
				min = i
			}
		}
		w := workers[min]
		t := sched.Next(w)
		if t == nil {
			done[min] = true
			remaining--
			continue
		}
		_, err := runTask(w, t)
		commitOrFail(w, t, err, &failures)
	}
	return failures
}

// RunParallel drives the scheduler with one goroutine per worker. Virtual
// clocks are still maintained (guarded per worker). Two separate locks keep
// the manager from contending with result finalization: schedMu serializes
// sched.Next only (the single manager process handing out tasks), and
// commitMu serializes stage commits into the shared sink plus the failure
// list. Task execution itself runs outside both.
func RunParallel(workers []*Worker, sched Scheduler) []TaskFailure {
	var schedMu, commitMu sync.Mutex
	var failures []TaskFailure
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for {
				schedMu.Lock()
				t := sched.Next(w)
				schedMu.Unlock()
				if t == nil {
					return
				}
				_, err := runTask(w, t)
				commitMu.Lock()
				commitOrFail(w, t, err, &failures)
				commitMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return failures
}

// Makespan returns the maximum virtual clock across workers — the paper's
// "wall clock time" (the time the slowest processor finishes).
func Makespan(workers []*Worker) float64 {
	max := 0.0
	for _, w := range workers {
		if w.Clock > max {
			max = w.Clock
		}
	}
	return max
}

// Loads returns each worker's virtual clock, for the load-distribution
// experiment (Fig 4.1).
func Loads(workers []*Worker) []float64 {
	out := make([]float64, len(workers))
	for i, w := range workers {
		out[i] = w.Clock
	}
	return out
}

// TotalCounters sums all workers' counters.
func TotalCounters(workers []*Worker) cost.Counters {
	var total cost.Counters
	for _, w := range workers {
		total.Add(w.Ctr)
	}
	return total
}

// QueueScheduler is a static per-worker task list (RP and BPP): each worker
// consumes its own queue; there is no stealing, matching the paper's static
// round-robin assignment — until a worker dies, at which point the chaos
// runner drains its queue via Reassign.
type QueueScheduler struct {
	mu     sync.Mutex
	queues [][]*Task
}

// NewQueueScheduler builds a scheduler with one queue per worker.
func NewQueueScheduler(n int) *QueueScheduler {
	return &QueueScheduler{queues: make([][]*Task, n)}
}

// Assign appends a task to worker w's queue.
func (s *QueueScheduler) Assign(w int, t *Task) {
	s.queues[w] = append(s.queues[w], t)
}

// AssignRoundRobin spreads tasks over the n workers in order.
func (s *QueueScheduler) AssignRoundRobin(tasks []*Task) {
	for i, t := range tasks {
		s.Assign(i%len(s.queues), t)
	}
}

// Next implements Scheduler.
func (s *QueueScheduler) Next(w *Worker) *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[w.ID]
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	s.queues[w.ID] = q[1:]
	return t
}

// Reassign implements Reassigner: a dead worker's pending queue is drained
// for the survivors.
func (s *QueueScheduler) Reassign(worker int) []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if worker < 0 || worker >= len(s.queues) {
		return nil
	}
	q := s.queues[worker]
	s.queues[worker] = nil
	return q
}

// ErrAllWorkersDead is reported when a fault plan killed every worker
// before the task set completed.
var ErrAllWorkersDead = fmt.Errorf("cluster: all workers dead with tasks outstanding")
