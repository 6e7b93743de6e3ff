package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/httpserve"
	"icebergcube/internal/ingest"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// keepSnapshots is how many versions the harness lets the edge retain:
// it calls RetainSnapshots after every acknowledged commit, because the
// edge itself never expires a version (see README.md, findings).
const keepSnapshots = 4

// mutateBody renders one batch as a /v1/mutate body with commit:true.
func mutateBody(m mutation) (string, error) {
	req := httpserve.MutateRequest{Commit: true, Appends: make([]httpserve.MutateRow, len(m.rows))}
	for i, row := range m.rows {
		req.Appends[i] = httpserve.MutateRow{Values: row, Measure: m.meas[i]}
	}
	b, err := json.Marshal(req)
	return string(b), err
}

// writeRNG derives the mutation stream's generator from the workload
// seed, apart from the reader's Zipf stream.
func writeRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed_c0de)) }

// serveWrite: one client posts durable commits in a closed loop while
// the other reads as in serve_hot. The op is the commit — what the
// writing user waits for; the reads are the background that keeps every
// cuboid resident, so each commit folds all of them.
func (r *run) serveWrite() error {
	if r.cfg.trace {
		return r.traceWrites()
	}
	sv, err := r.setUpServed(tierDurable, 0, true)
	if err != nil {
		return err
	}
	defer sv.close()
	st := sv.st
	cubs := allCuboids(sv.in.serveDims)
	reads, err := r.readOps(readSpec{zipf: true}, st, cubs, r.sz.hotOps)
	if err != nil {
		return err
	}

	perPass := scaled(r.sz.commits, r.cfg.seconds, 2)
	warm := max(perPass/5, 1)
	muts := mutations(writeRNG(r.cfg.seed), sv.in, warm+timedPasses*perPass)
	r.seq = fingerprint(muts)
	bodies := make([]string, len(muts))
	for i, m := range muts {
		if bodies[i], err = mutateBody(m); err != nil {
			return err
		}
	}

	var acked []mutation
	var readsDone int
	next := 0
	passNo := 0
	err = r.passes(1, timedPasses, func() (pass, error) {
		n := perPass
		if passNo == 0 {
			n = warm
		}
		passNo++
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if clients() > 1 {
			wg.Add(1)
			go func() { // the reader: serve_hot's stream until the writer is done
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c := cubs[reads[i%len(reads)]]
					r.attempted.Add(1)
					if _, err := st.get(c.path); err != nil {
						r.fail("query %v: %v", c.groupBy, err)
					}
					readsDone++
				}
			}()
		}
		lat := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := st.post(bodies[next])
			lat = append(lat, time.Since(t0))
			r.attempted.Add(1)
			if err != nil {
				r.fail("commit %d: %v", next, err)
			} else {
				acked = append(acked, muts[next])
				st.warm.RetainSnapshots(keepSnapshots)
			}
			next++
		}
		wall := time.Since(start)
		close(stop)
		wg.Wait()
		return summarize(lat, wall), nil
	})
	if err != nil {
		return err
	}
	r.note("op = POST /v1/mutate of %d rows with commit:true; %d background reads rode along", batchRows, readsDone)

	// Answers at the final version equal a scratch Compute over the base
	// rows plus every acknowledged append, before and after a restart.
	logDir := filepath.Join(st.dir, "log")
	if n, err := dirBytes(logDir); err == nil && len(acked) > 0 {
		base := float64(sv.in.rel.Len())
		r.note("WAL holds %.1f B per row (%d base + %d appended rows)", float64(n)/(base+float64(len(acked)*batchRows)), sv.in.rel.Len(), len(acked)*batchRows)
	}
	ref, err := scratchReference(sv.in, acked)
	if err != nil {
		return err
	}
	version := uint64(len(acked) + 1)
	r.verifyCube("verify", cubs, overHTTP(st), ref, version)
	if err := st.warm.Close(); err != nil {
		return err
	}
	rec, err := icebergcube.RecoverMaterialized(sv.in.ds, sv.in.serveDims, logDir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	// Recovery restores every version; the check needs only the head.
	r.attempted.Add(1)
	if rec.Version() != version {
		r.fail("recovered version %d, want %d", rec.Version(), version)
	}
	rec.RetainSnapshots(1)
	r.verifyCube("verify recovered", cubs, inProcess(rec), ref, version)
	return r.durabilityProbe()
}

// leafOf computes the serving cube's leaf the way the ladder's bare
// rungs need it — core.PT into a results.Set, the leaf cuboid lifted out
// as columns — together with the projected rows the write path keeps.
func leafOf(in *inputs) (leaf *serve.Cuboid, rowKeys []uint32, meas []float64, cards []int, err error) {
	set := results.NewSet()
	_, err = core.PT(core.Run{
		Rel: in.rel, Dims: in.serveIdx, Cond: agg.MinSupport(1),
		Workers: cubeWorkers, Sink: set, Parallel: true, Seed: 1,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	w := len(in.serveIdx)
	full := lattice.Mask(1)<<uint(w) - 1
	keys, states := set.CuboidColumns(full)
	leaf = &serve.Cuboid{Mask: full, Width: w, Keys: keys, States: states}
	n := in.rel.Len()
	rowKeys = make([]uint32, 0, n*w)
	meas = make([]float64, n)
	cards = make([]int, w)
	for i, d := range in.serveIdx {
		cards[i] = in.rel.Card(d)
	}
	for row := 0; row < n; row++ {
		for _, d := range in.serveIdx {
			rowKeys = append(rowKeys, in.rel.Value(d, row))
		}
		meas[row] = in.rel.Measure(row)
	}
	return leaf, rowKeys, meas, cards, nil
}

// durabilityProbe checks the durability contract itself. Killing a
// process leaves the operating system's cache intact, so the probe does
// the discarding: a small twin ingest.Cube logs to wal.MemFS; after
// every acknowledged commit an unacknowledged batch is appended, MemFS
// drops (and bit-flips) whatever was never synced, and the cube
// recovered from what is left must hold every acknowledged commit.
func (r *run) durabilityProbe() error {
	in := newInputs(tinySizes.tuples)
	leaf, rowKeys, meas, cards, err := leafOf(in)
	if err != nil {
		return err
	}
	fsys := wal.NewMemFS()
	lg, err := wal.Create(fsys, "log", wal.Options{})
	if err != nil {
		return err
	}
	cube := ingest.New(leaf, rowKeys, meas, cards, 0)
	if err := cube.AttachWAL(lg); err != nil {
		return err
	}
	rng := writeRNG(r.cfg.seed)
	script := mutations(rng, in, 2*tinySizes.commits)
	wantRows := int64(in.rel.Len())
	var wantSum float64
	for _, m := range meas {
		wantSum += m
	}
	for i := 0; i+1 < len(script); i += 2 {
		acked, torn := script[i], script[i+1]
		if err := cube.Append(acked.keys, acked.meas); err != nil {
			return err
		}
		if _, err := cube.Commit(); err != nil {
			return err
		}
		wantRows += batchRows
		for _, m := range acked.meas {
			wantSum += m
		}
		if err := cube.Append(torn.keys, torn.meas); err != nil { // logged, never committed
			return err
		}
		fsys.Crash(rng, true)

		r.attempted.Add(1)
		rec, err := ingest.Recover(fsys, "log", 0, wal.Options{}, nil)
		if err != nil {
			r.fail("durability: recovery after commit %d: %v", i/2+1, err)
			return nil
		}
		cube = rec // the restarted process carries on in the same log
		all, _, err := rec.Current().Srv.Query(0)
		switch wantVersion := uint64(i/2 + 2); {
		case err != nil:
			r.fail("durability: query after commit %d: %v", i/2+1, err)
		case rec.Current().Version != wantVersion:
			r.fail("durability: recovered version %d, want %d", rec.Current().Version, wantVersion)
		case all.States[0].Count != wantRows || !near(all.States[0].Sum, wantSum):
			r.fail("durability: after commit %d the cube holds %d rows (sum %g), acknowledged %d (sum %g)",
				i/2+1, all.States[0].Count, all.States[0].Sum, wantRows, wantSum)
		}
	}
	return cube.Close()
}

// history is what the recover workload's set-up produces: a closed WAL
// directory holding a fixed commit history.
type history struct {
	served
	acked []mutation
}

// buildHistory logs n commits through the root API, the last one with
// every cuboid resident — so the final marker carries the full warm set
// recovery has to rebuild — and closes the log.
func (r *run) buildHistory(n int) (history, error) {
	in := newInputs(r.sz.tuples)
	st, err := newStack(in, tierDurable, 0, r.cfg.outDir, false)
	h := history{served: served{in, st}}
	if err != nil {
		return h, err
	}
	h.acked = mutations(writeRNG(r.cfg.seed), in, n)
	r.seq = fingerprint(h.acked)
	for i, m := range h.acked {
		if i == n-1 {
			for _, c := range allCuboids(in.serveDims) {
				if _, err := st.warm.Answer(c.groupBy, minSupport); err != nil {
					return h, err
				}
			}
		}
		if err := st.warm.Append(m.rows, m.meas); err != nil {
			return h, err
		}
		if _, err := st.warm.Commit(); err != nil {
			return h, err
		}
		st.warm.RetainSnapshots(keepSnapshots)
	}
	return h, st.warm.Close()
}

// recoverWAL: the op is one RecoverMaterialized of the fixed history —
// what a restarted durable server does before it can answer.
func (r *run) recoverWAL() error {
	if r.cfg.trace {
		return r.traceRecover()
	}
	h, err := setUp(r, func() (history, error) { return r.buildHistory(r.sz.history) }, history.close)
	if err != nil {
		return err
	}
	defer h.close()
	logDir := filepath.Join(h.st.dir, "log")
	cubs := allCuboids(h.in.serveDims)
	version := uint64(len(h.acked) + 1)

	// A recovered cube holds every version of the history, so the one
	// before is released and collected outside the timed region: the op
	// is the recovery, not the harness's garbage.
	var last *icebergcube.Materialized
	recoverOnce := func() (time.Duration, error) {
		if last != nil {
			if err := last.Close(); err != nil {
				return 0, err
			}
			last = nil
		}
		runtime.GC()
		t0 := time.Now()
		m, err := icebergcube.RecoverMaterialized(h.in.ds, h.in.serveDims, logDir)
		d := time.Since(t0)
		r.attempted.Add(1)
		if err != nil {
			r.fail("recover: %v", err)
			return d, nil
		}
		if m.Version() != version {
			r.fail("recovered version %d, want %d", m.Version(), version)
		}
		last = m
		return d, nil
	}
	// Two recoveries a pass: a pass's p90 is the slower one, and the median
	// over the passes shrugs off two disturbed passes, where the 10th of
	// 11 recoveries in one pass moved whenever two of them were slow.
	n := scaled(r.sz.recovers, r.cfg.seconds, 2)
	err = r.passes(1, timedPasses, func() (pass, error) {
		lat := make([]time.Duration, 0, n)
		var busy time.Duration
		for i := 0; i < n; i++ {
			d, err := recoverOnce()
			if err != nil {
				return pass{}, err
			}
			lat = append(lat, d)
			busy += d
		}
		return summarize(lat, busy), nil
	})
	if err != nil {
		return err
	}
	r.note("op = RecoverMaterialized of %d logged commits of %d rows", len(h.acked), batchRows)
	if last == nil {
		return nil
	}
	defer last.Close()
	ref, err := scratchReference(h.in, h.acked)
	if err != nil {
		return err
	}
	r.verifyCube("verify recovered", cubs, inProcess(last), ref, version)
	return nil
}
