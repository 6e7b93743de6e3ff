package serve

import (
	"sync"

	"icebergcube/internal/lattice"
)

// fillReq is one background materialization request: a plan winner and
// the retained-benefit score it admits with.
type fillReq struct {
	mask  lattice.Mask
	score float64
}

// Background is the asynchronous executor behind the adaptive policy: it
// runs re-plans and materialization fills off the query path, one job at
// a time on its own goroutine. One executor can
// serve the whole chain of snapshot versions — commit handoffs re-target
// it at the successor server, and jobs for retired servers are dropped on
// dequeue (Server.fill and Replan both check retirement).
//
// Foreground queries never block on the executor: fills go through the
// server's singleflight, so a query that wants a cuboid mid-fill simply
// coalesces onto the fill's result.
type Background struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []bgJob
	running bool // the worker is executing a dequeued job
	closed  bool

	wg sync.WaitGroup
}

// bgJob is one queued unit: a re-plan for srv, or a batch of fills.
type bgJob struct {
	srv    *Server
	replan bool
	fills  []fillReq
}

// NewBackground starts an executor. Close it when the serving stack shuts
// down.
func NewBackground() *Background {
	b := &Background{}
	b.cond = sync.NewCond(&b.mu)
	b.wg.Add(1)
	go b.loop()
	return b
}

// submitReplan enqueues a planning pass for s, collapsing with one
// already queued for the same server.
func (b *Background) submitReplan(s *Server) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for _, j := range b.queue {
		if j.replan && j.srv == s {
			return
		}
	}
	b.queue = append(b.queue, bgJob{srv: s, replan: true})
	b.cond.Broadcast()
}

// submitFills enqueues a batch of materializations for s.
func (b *Background) submitFills(s *Server, reqs []fillReq) {
	if len(reqs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.queue = append(b.queue, bgJob{srv: s, fills: reqs})
	b.cond.Broadcast()
}

func (b *Background) loop() {
	defer b.wg.Done()
	b.mu.Lock()
	for {
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if b.closed {
			b.mu.Unlock()
			return
		}
		job := b.queue[0]
		b.queue = b.queue[1:]
		b.running = true
		b.mu.Unlock()

		b.run(job)

		b.mu.Lock()
		b.running = false
		b.cond.Broadcast() // wake Wait
	}
}

func (b *Background) run(job bgJob) {
	if job.srv.retired.Load() {
		return
	}
	if job.replan {
		job.srv.Replan()
		return
	}
	for _, f := range job.fills {
		job.srv.fill(f.mask, f.score)
	}
}

// Wait blocks until the queue is drained and no job is executing. Tests
// and the stats dump use it to observe a quiescent cache; note a re-plan
// executed during the wait may enqueue fills, which Wait also drains.
func (b *Background) Wait() {
	b.mu.Lock()
	for (len(b.queue) > 0 || b.running) && !b.closed {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Close drains nothing: it drops queued jobs and stops the worker after
// the in-flight job (if any) finishes. Safe to call more than once.
func (b *Background) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.queue = nil
	b.cond.Broadcast()
	b.mu.Unlock()
	b.wg.Wait()
}
