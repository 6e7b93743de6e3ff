package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	icebergcube "icebergcube"
)

// setupReps is how often a run sets up: set-up is short, so one build
// is noisy; the median of three is what setup_s reports. A traced run
// reports no setup_s and sets up once.
const setupReps = 3

// setUp builds the workload's state setupReps times — everything from
// generating the data to being ready for the first request — discarding
// all but the last build, and reports the median build time as setup_s.
func setUp[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	reps := setupReps
	if r.cfg.trace {
		reps = 1
	}
	var kept T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(kept)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		kept = v
	}
	if !r.cfg.trace {
		r.set("setup_s", median(times))
		r.note("setup_s is the median of %d builds", reps)
	}
	return kept, nil
}

// timedPasses is how many timed passes a run makes over its op sequence.
// The machine's noise comes in bursts, so more, shorter passes and their
// median repeat better than fewer, longer ones.
const timedPasses = 5

// passes runs warm untimed passes and timed timed ones, collecting the
// garbage before each so one pass's allocations are not charged to the
// next, and reports the field-wise median of the timed passes and what
// the workload's state retains when they end.
func (r *run) passes(warm, timed int, one func() (pass, error)) error {
	var ps []pass
	for i := 0; i < warm+timed; i++ {
		runtime.GC()
		p, err := one()
		if err != nil {
			return err
		}
		if i >= warm {
			ps = append(ps, p)
		}
	}
	var each []string
	for _, p := range ps {
		each = append(each, fmt.Sprintf("%.4g/%.4g/%.4g", p.p50ms, p.p90ms, p.perSec))
	}
	r.note("per pass p50 ms/p90 ms/ops per s: %s", strings.Join(each, " "))
	m := medianPass(ps)
	r.set("op_p50_ms", m.p50ms)
	r.set("op_p90_ms", m.p90ms)
	r.set("ops_per_s", m.perSec)
	r.note("%d ops per pass, %d warm-up + %d timed passes, medians over the timed passes; p99 %.3f ms (not gated)",
		m.ops, warm, timed, m.p99ms)

	// Memory is the heap still in use after a forced collection: the
	// cache, the snapshots, the result sets. The resident-set peak is
	// printed too, but it moves by a fifth with the collector's timing.
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pools the first one aged
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20))
	if rss, err := peakRSSMB(); err == nil {
		r.note("peak RSS (VmHWM) %.0f MB (not gated)", rss)
	}
	return nil
}

// served is what a serving workload's set-up produces.
type served struct {
	in *inputs
	st *stack
}

func (s served) close() {
	if s.st != nil {
		s.st.close()
	}
}

// setUpServed is setUp for one stack.
func (r *run) setUpServed(t tier, budget int64, listen bool) (served, error) {
	return setUp(r, func() (served, error) {
		in := newInputs(r.sz.tuples)
		st, err := newStack(in, t, budget, r.cfg.outDir, listen)
		return served{in, st}, err
	}, served.close)
}

// sizeCuboids asks the stack's backend for every group-by once, in mask
// order, and records its answer size — the popularity rank's input. It
// also leaves every cuboid the cache has room for resident.
func (r *run) sizeCuboids(st *stack, cubs []cuboid) error {
	for i := range cubs {
		n := 0
		_, err := st.back.AnswerEach(context.Background(), cubs[i].groupBy, minSupport, func(icebergcube.Cell) error {
			n++
			return nil
		})
		if err != nil {
			return fmt.Errorf("sizing %v: %w", cubs[i].groupBy, err)
		}
		cubs[i].cells = n
	}
	return nil
}

// readPass is one closed-loop pass: the clients share one cursor into
// ops, each sending its next query only after the previous answer has
// been read to the end.
func (r *run) readPass(st *stack, cubs []cuboid, ops []int) pass {
	lat := make([]time.Duration, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				_, err := st.get(cubs[ops[i]].path)
				lat[i] = time.Since(t0)
				r.attempted.Add(1)
				if err != nil {
					r.fail("query %v: %v", cubs[ops[i]].groupBy, err)
				}
			}
		}()
	}
	wg.Wait()
	return summarize(lat, time.Since(start))
}

// readSpec is what distinguishes the three read-only serving workloads.
type readSpec struct {
	tier   tier
	budget int64 // cache budget; 0 = the default 64 MiB
	zipf   bool  // Zipf over the popularity rank, else uniform
	ops    int   // per pass at -seconds 10
}

func (r *run) serveHot() error {
	return r.serveReads(readSpec{tier: tierWarm, zipf: true, ops: r.sz.hotOps})
}

func (r *run) serveThrash() error {
	return r.serveReads(readSpec{tier: tierWarm, budget: r.sz.thrashBudget, ops: r.sz.thrashOps})
}

func (r *run) coldScan() error {
	return r.serveReads(readSpec{tier: tierCold, budget: r.sz.coldBudget, ops: r.sz.coldOps})
}

// readOps draws the workload's op sequence. The Zipf rank needs the
// answer sizes, so a Zipf workload sizes the cuboids first.
func (r *run) readOps(spec readSpec, st *stack, cubs []cuboid, n int) ([]int, error) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	if !spec.zipf {
		r.seq = uniformOps(rng, len(cubs), n)
		return r.seq, nil
	}
	if err := r.sizeCuboids(st, cubs); err != nil {
		return nil, err
	}
	r.seq = zipfOps(rng, byPopularity(cubs), n)
	return r.seq, nil
}

func (r *run) serveReads(spec readSpec) error {
	if r.cfg.trace {
		return r.traceReads(spec)
	}
	sv, err := r.setUpServed(spec.tier, spec.budget, true)
	if err != nil {
		return err
	}
	defer sv.close()
	cubs := allCuboids(sv.in.serveDims)
	ops, err := r.readOps(spec, sv.st, cubs, scaled(spec.ops, r.cfg.seconds, len(cubs)/2))
	if err != nil {
		return err
	}
	err = r.passes(1, timedPasses, func() (pass, error) { return r.readPass(sv.st, cubs, ops), nil })
	if err != nil {
		return err
	}
	r.note("op = GET /v1/query, %d client(s), closed loop", clients())
	ref, err := reference(sv.in.ds, sv.in.serveDims)
	if err != nil {
		return err
	}
	var version uint64 // the cold tier serves at version 0
	if sv.st.warm != nil {
		version = 1
	}
	r.verifyCube("verify", cubs, overHTTP(sv.st), ref, version)
	return nil
}
