package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/hashtree"
	"icebergcube/internal/lattice"
	"icebergcube/internal/mpi"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// DistributedCube runs the iceberg-cube computation across the ranks of an
// MPI world — the deployment shape of the paper's actual system (one
// process per cluster node, data set replicated). Rank 0 is the manager
// (the paper's reliable scheduler process): it owns the task pool — one
// BUC subtree per cube dimension, plus the "all" cell it computes itself —
// and grants tasks to workers on demand, exactly §3.3.2's demand
// scheduling. Workers execute each task with the breadth-first BPP-BUC
// kernel, stage the task's cells locally, and ship them back with the
// completion message, so a task's output is committed into the manager's
// sink atomically with its completion.
//
// The runtime is fault-tolerant up to the death of every worker:
//
//   - each grant carries a lease; a task not completed within its lease is
//     speculatively requeued for another worker (the straggler's own
//     completion, should it still arrive, is dropped as a duplicate);
//   - a worker death (broken connection, killed rank) is detected both by
//     the transport (mpi.PeerStatus) and by lease expiry, and the dead
//     worker's outstanding task is reassigned;
//   - task commit is exactly-once: completions are deduplicated by task
//     ID, so re-execution never double-counts cells;
//   - a task whose staged output exceeds the configured memory budget
//     fails gracefully — the worker reports it (wrapping
//     hashtree.ErrMemoryExhausted), the manager records it as degraded,
//     and the run continues without those cells;
//   - if every worker dies, the manager executes the remaining tasks
//     itself, so the cube always completes while rank 0 lives. (A manager
//     death is outside the model, matching the paper's reliable-manager
//     assumption.)
//
// All qualifying cells land in rank 0's sink; worker-rank sinks are used
// only for staging. Every rank returns the same world-wide cell total.
// It works identically over the in-process transport, the TCP transport,
// and either of them wrapped in mpi.Chaos.
func DistributedCube(comm mpi.Comm, rel *relation.Relation, dims []int, cond agg.Condition, sink disk.CellSink, opts ...DistOption) (*DistReport, error) {
	if cond == nil {
		cond = agg.MinSupport(1)
	}
	cfg := DistConfig{Lease: 2 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Second
	}
	if cfg.Tick <= 0 {
		cfg.Tick = cfg.Lease / 100
		if cfg.Tick < 2*time.Millisecond {
			cfg.Tick = 2 * time.Millisecond
		}
		if cfg.Tick > 50*time.Millisecond {
			cfg.Tick = 50 * time.Millisecond
		}
	}
	if comm.Rank() == 0 {
		return distManager(comm, rel, dims, cond, sink, cfg)
	}
	return distWorker(comm, rel, dims, cond, cfg)
}

// DistConfig tunes the fault-tolerant distributed runtime.
type DistConfig struct {
	// Lease is how long the manager waits for a granted task before
	// speculatively reassigning it, and how long a worker waits for a
	// grant before re-requesting. Default 2s.
	Lease time.Duration
	// MemBudget caps one task's staged output bytes on a worker; a task
	// exceeding it fails with hashtree.ErrMemoryExhausted and is reported
	// as degraded instead of aborting the run. <= 0 disables the budget.
	MemBudget int64
	// Tick is the manager's housekeeping interval (lease checks, dead-peer
	// polls). Defaults to Lease/100 clamped to [2ms, 50ms].
	Tick time.Duration
}

// DistOption configures DistributedCube.
type DistOption func(*DistConfig)

// WithLease sets the task lease (and the workers' grant-wait deadline).
func WithLease(d time.Duration) DistOption { return func(c *DistConfig) { c.Lease = d } }

// WithMemBudget caps per-task staged output bytes (see DistConfig).
func WithMemBudget(b int64) DistOption { return func(c *DistConfig) { c.MemBudget = b } }

// DistReport summarizes a distributed run. Worker ranks only learn Total;
// the manager fills in the scheduling detail.
type DistReport struct {
	// Total is the world-wide count of cells written to rank 0's sink.
	Total int64
	// TasksRun is the number of distinct tasks committed (manager only).
	TasksRun int
	// Degraded lists tasks dropped after exhausting their memory budget.
	Degraded []string
	// Reassigned counts grants requeued after a lease expiry or a worker
	// death.
	Reassigned int
	// DuplicatesDropped counts completions discarded by the exactly-once
	// commit.
	DuplicatesDropped int
	// Dead lists worker ranks the manager observed dying, sorted.
	Dead []int
}

// Control-protocol tags and message kinds. Workers talk to the manager on
// tagCtl; the manager replies on tagGrant.
const (
	tagCtl   = 201
	tagGrant = 202

	ctlReq  = 'R' // worker → manager: give me a task
	ctlDone = 'D' // worker → manager: task done, cells attached
	ctlFail = 'F' // worker → manager: task failed

	grantTask  = 'T' // manager → worker: run this task
	grantIdle  = 'W' // manager → worker: nothing now, ask again
	grantFin   = 'F' // manager → worker: all tasks committed, total attached
	grantAbort = 'A' // manager → worker: unrecoverable failure, stop

	failMem   = 'M' // ctlFail detail: task memory budget exhausted
	failOther = 'X' // ctlFail detail: any other task error
)

// distTask is one unit of distributed work: the full BUC subtree rooted at
// a single dimension (RP's decomposition, which needs no cross-task state).
type distTask struct {
	id    int
	label string
	dim   int // position within dims
}

func distTasks(rel *relation.Relation, dims []int) []distTask {
	tasks := make([]distTask, len(dims))
	for p := range dims {
		tasks[p] = distTask{id: p, label: fmt.Sprintf("subtree T_%s", lattice.MaskOf(p).Label(relNames(rel, dims))), dim: p}
	}
	return tasks
}

func relNames(rel *relation.Relation, dims []int) []string {
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = rel.Name(d)
	}
	return names
}

// runDistTask executes one task into out. It is a pure function of
// (rel, dims, cond, task), which is what makes re-execution on any rank
// safe.
func runDistTask(rel *relation.Relation, dims []int, cond agg.Condition, t distTask, out *disk.Writer, ctr *cost.Counters, s *relation.Scratch) {
	sub := lattice.FullSubtree(lattice.MaskOf(t.dim), len(dims))
	view := rel.Identity()
	rel.SortViewScratch(view, []int{dims[t.dim]}, ctr, s)
	RunSubtreeScratch(rel, view, dims, sub, cond, out, ctr, s)
}

// distManager is rank 0: task pool, leases, commit, recovery.
func distManager(comm mpi.Comm, rel *relation.Relation, dims []int, cond agg.Condition, sink disk.CellSink, cfg DistConfig) (*DistReport, error) {
	rep := &DistReport{}
	var ctr cost.Counters
	out := disk.NewWriter(&ctr, sink)
	tasks := distTasks(rel, dims)

	writeAll(rel, rel.Identity(), cond, out, &ctr)

	pending := make([]int, len(tasks)) // task ids awaiting a worker
	for i := range tasks {
		pending[i] = i
	}
	committed := make(map[int]bool)
	granted := make(map[int]int)        // worker rank → outstanding task id
	deadline := make(map[int]time.Time) // worker rank → lease expiry
	respawned := make(map[int]bool)     // worker rank → lease already requeued once
	dead := make(map[int]bool)          // worker rank → observed dead
	liveWorkers := comm.Size() - 1

	doneCount := func() int { return len(committed) }
	scratch := relation.NewScratch()
	commitLocal := func(id int) {
		runDistTask(rel, dims, cond, tasks[id], out, &ctr, scratch)
		committed[id] = true
		rep.TasksRun++
	}

	// Single-rank world: the manager is the whole cluster.
	if liveWorkers == 0 {
		for _, id := range pending {
			commitLocal(id)
		}
		pending = nil
	}

	markDead := func(r int) {
		if dead[r] {
			return
		}
		dead[r] = true
		liveWorkers--
		if id, ok := granted[r]; ok {
			delete(granted, r)
			delete(deadline, r)
			if !committed[id] {
				pending = append(pending, id)
				rep.Reassigned++
			}
		}
	}

	for doneCount() < len(tasks) {
		msg, err := comm.RecvTimeout(mpi.AnySource, tagCtl, cfg.Tick)
		now := time.Now()
		if err != nil {
			if !errors.Is(err, mpi.ErrTimeout) && !errors.Is(err, mpi.ErrPeerDown) {
				return rep, fmt.Errorf("core: manager receive: %w", err)
			}
		} else if len(msg.Payload) > 0 && !dead[msg.From] {
			switch msg.Payload[0] {
			case ctlReq:
				if id, ok := granted[msg.From]; ok && !committed[id] {
					// The worker re-asked (its grant-wait timed out, or the
					// grant was lost in transit): resend the same grant.
					sendGrant(comm, msg.From, id)
					deadline[msg.From] = now.Add(cfg.Lease)
				} else if delete(granted, msg.From); len(pending) > 0 {
					id := pending[0]
					pending = pending[1:]
					if sendGrant(comm, msg.From, id) != nil {
						pending = append(pending, id) // send failed: peer died
					} else {
						granted[msg.From] = id
						deadline[msg.From] = now.Add(cfg.Lease)
						respawned[msg.From] = false
					}
				} else {
					comm.Send(msg.From, tagGrant, []byte{grantIdle})
				}
			case ctlDone:
				id := int(binary.LittleEndian.Uint32(msg.Payload[1:]))
				if committed[id] {
					rep.DuplicatesDropped++
				} else {
					staged := results.NewSet()
					if err := staged.DecodeInto(msg.Payload[5:]); err != nil {
						return rep, fmt.Errorf("core: manager decoding task %d cells from rank %d: %w", id, msg.From, err)
					}
					staged.Each(func(m lattice.Mask, key []uint32, st agg.State) {
						out.WriteCell(m, key, st)
					})
					committed[id] = true
					rep.TasksRun++
				}
				if g, ok := granted[msg.From]; ok && g == id {
					delete(granted, msg.From)
					delete(deadline, msg.From)
				}
			case ctlFail:
				id := int(binary.LittleEndian.Uint32(msg.Payload[1:]))
				kind := msg.Payload[5]
				reason := string(msg.Payload[6:])
				if g, ok := granted[msg.From]; ok && g == id {
					delete(granted, msg.From)
					delete(deadline, msg.From)
				}
				if kind == failMem {
					// Graceful degradation: the task's cells are lost but the
					// cluster carries on (§ fault model in DESIGN.md).
					if !committed[id] {
						committed[id] = true
						rep.Degraded = append(rep.Degraded, tasks[id].label)
					}
				} else {
					abort := append([]byte{grantAbort}, reason...)
					for r := 1; r < comm.Size(); r++ {
						if !dead[r] {
							comm.Send(r, tagGrant, abort)
						}
					}
					return rep, fmt.Errorf("core: task %q failed on rank %d: %s", tasks[id].label, msg.From, reason)
				}
			}
		}

		// Housekeeping: transport-detected deaths, then lease expiries.
		if ps, ok := comm.(mpi.PeerStatus); ok {
			for _, r := range ps.DeadPeers() {
				markDead(r)
			}
		}
		for r, dl := range deadline {
			if now.After(dl) && !respawned[r] {
				// Straggler: requeue its task speculatively. The original
				// completion, if it ever arrives, is dropped as a duplicate.
				if id := granted[r]; !committed[id] {
					pending = append(pending, id)
					rep.Reassigned++
				}
				respawned[r] = true
			}
		}
		// No one left to ask: finish the outstanding work locally.
		if liveWorkers == 0 {
			for _, id := range pending {
				if !committed[id] {
					commitLocal(id)
				}
			}
			pending = nil
			for _, id := range granted {
				if !committed[id] {
					commitLocal(id)
					rep.Reassigned++
				}
			}
			granted = map[int]int{}
		}
	}

	rep.Total = ctr.CellsWritten
	fin := make([]byte, 9)
	fin[0] = grantFin
	binary.LittleEndian.PutUint64(fin[1:], uint64(rep.Total))
	for r := 1; r < comm.Size(); r++ {
		if !dead[r] {
			comm.Send(r, tagGrant, fin)
		}
	}
	for r := range dead {
		rep.Dead = append(rep.Dead, r)
	}
	sort.Ints(rep.Dead)
	return rep, nil
}

func sendGrant(comm mpi.Comm, to, id int) error {
	buf := make([]byte, 5)
	buf[0] = grantTask
	binary.LittleEndian.PutUint32(buf[1:], uint32(id))
	return comm.Send(to, tagGrant, buf)
}

// distWorker is the worker loop: request, execute, stage, report.
func distWorker(comm mpi.Comm, rel *relation.Relation, dims []int, cond agg.Condition, cfg DistConfig) (*DistReport, error) {
	tasks := distTasks(rel, dims)
	idleWait := cfg.Lease / 20
	if idleWait < time.Millisecond {
		idleWait = time.Millisecond
	}
	const maxGrantRetries = 8
	retries := 0
	scratch := relation.NewScratch()
	for {
		if err := comm.Send(0, tagCtl, []byte{ctlReq}); err != nil {
			return nil, fmt.Errorf("core: rank %d requesting task: %w", comm.Rank(), err)
		}
		msg, err := comm.RecvTimeout(0, tagGrant, cfg.Lease)
		if err != nil {
			if errors.Is(err, mpi.ErrTimeout) && retries < maxGrantRetries {
				retries++ // request or grant may have been lost: ask again
				continue
			}
			return nil, fmt.Errorf("core: rank %d awaiting grant: %w", comm.Rank(), err)
		}
		retries = 0
		switch msg.Payload[0] {
		case grantFin:
			return &DistReport{Total: int64(binary.LittleEndian.Uint64(msg.Payload[1:]))}, nil
		case grantAbort:
			return nil, fmt.Errorf("core: rank %d: run aborted by manager: %s", comm.Rank(), string(msg.Payload[1:]))
		case grantIdle:
			time.Sleep(idleWait)
			continue
		case grantTask:
			id := int(binary.LittleEndian.Uint32(msg.Payload[1:]))
			var ctr cost.Counters
			staged := results.NewSet()
			runDistTask(rel, dims, cond, tasks[id], disk.NewWriter(&ctr, staged), &ctr, scratch)
			payload := staged.Encode()
			if cfg.MemBudget > 0 && int64(len(payload)) > cfg.MemBudget {
				taskErr := fmt.Errorf("core: task %q staged %d bytes over budget %d: %w",
					tasks[id].label, len(payload), cfg.MemBudget, hashtree.ErrMemoryExhausted)
				fail := make([]byte, 6, 6+len(taskErr.Error()))
				fail[0] = ctlFail
				binary.LittleEndian.PutUint32(fail[1:], uint32(id))
				fail[5] = failMem
				fail = append(fail, taskErr.Error()...)
				if err := comm.Send(0, tagCtl, fail); err != nil {
					return nil, fmt.Errorf("core: rank %d reporting failure: %w", comm.Rank(), err)
				}
				continue
			}
			done := make([]byte, 5, 5+len(payload))
			done[0] = ctlDone
			binary.LittleEndian.PutUint32(done[1:], uint32(id))
			done = append(done, payload...)
			if err := comm.Send(0, tagCtl, done); err != nil {
				return nil, fmt.Errorf("core: rank %d reporting completion: %w", comm.Rank(), err)
			}
		}
	}
}

// GatherCells ships every rank's collected cells to rank 0 and merges them
// into one Set (rank 0 returns it; other ranks return nil). The paper
// leaves cuboids distributed on local disks; gathering is the verification
// and query-serving path.
func GatherCells(comm mpi.Comm, local *results.Set) (*results.Set, error) {
	payload := local.Encode()
	parts, err := mpi.Gather(comm, payload)
	if err != nil {
		return nil, fmt.Errorf("core: gathering cells: %w", err)
	}
	if comm.Rank() != 0 {
		return nil, nil
	}
	merged := results.NewSet()
	for _, part := range parts {
		if err := merged.DecodeInto(part); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
