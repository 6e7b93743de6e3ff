package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/ingest"
	"icebergcube/internal/wal"
)

// The write ladder: W0 POST /v1/mutate over loopback, W1 the same body
// through ServeHTTP on a recorder, W2 the root Append+Commit, W3 an
// ingest.Cube logging to a wal.Log on DirFS, W4 an ingest.Cube with no
// log, W5 the wal.Log's Append+Append+Sync alone. Every cube starts with
// all 64 cuboids resident, as serve_write's reader keeps them, so each
// commit folds all of them on every rung.

// writeRung is one level of the write ladder.
type writeRung struct {
	name   string
	commit func(i int, m mutation) error
}

func (r *run) traceWrites() error {
	in := newInputs(r.sz.tuples)
	var stacks []*stack
	defer func() {
		for _, s := range stacks {
			s.close()
		}
	}()
	for k := 0; k < 3; k++ {
		st, err := newStack(in, tierDurable, 0, r.cfg.outDir, k == 0)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
	}
	w0, w1, w2 := stacks[0], stacks[1], stacks[2]

	leaf, rowKeys, meas, cards, err := leafOf(in)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg3, err := wal.Create(wal.DirFS{}, filepath.Join(dir, "w3"), wal.Options{})
	if err != nil {
		return err
	}
	c3 := ingest.New(leaf, rowKeys, meas, cards, 0)
	if err := c3.AttachWAL(lg3); err != nil {
		return err
	}
	defer c3.Close()
	c4 := ingest.New(leaf, rowKeys, meas, cards, 0)
	lg5, err := wal.Create(wal.DirFS{}, filepath.Join(dir, "w5"), wal.Options{})
	if err != nil {
		return err
	}
	defer lg5.Close()

	// Every cuboid resident on every cube.
	cubs := allCuboids(in.serveDims)
	if err := r.sizeCuboids(w0, cubs); err != nil {
		return err
	}
	var resident []uint32 // what a commit marker carries
	for _, c := range cubs {
		for _, m := range []*icebergcube.Materialized{w1.warm, w2.warm} {
			if _, err := m.Answer(c.groupBy, minSupport); err != nil {
				return err
			}
		}
		for _, cube := range []*ingest.Cube{c3, c4} {
			if _, _, err := cube.Current().Srv.Query(c.mask); err != nil {
				return err
			}
		}
	}
	for _, cub := range c3.Current().Srv.Resident() {
		resident = append(resident, uint32(cub.Mask))
	}
	r.step("write ladder built and warm")

	perPass := scaled(r.sz.commits, r.cfg.seconds, 2)
	warm, n := perPass/10+1, (perPass*3+3)/4
	muts := mutations(writeRNG(r.cfg.seed), in, warm+n)
	r.seq = fingerprint(muts)
	bodies := make([]string, len(muts))
	for i, m := range muts {
		if bodies[i], err = mutateBody(m); err != nil {
			return err
		}
	}

	appendUS := make([]float64, 0, n) // W4's Append alone
	walAppendUS := make([]float64, 0, n)
	walSyncMS := make([]float64, 0, n)
	var reportedMS, folded []float64
	timing := false
	version := uint64(1)
	rungs := []writeRung{
		{"W0.http", func(i int, m mutation) error {
			err := w0.post(bodies[i])
			if err == nil && timing {
				snaps := w0.warm.Snapshots()
				last := snaps[len(snaps)-1]
				reportedMS = append(reportedMS, last.CommitSeconds*1000)
				folded = append(folded, float64(last.FoldedCuboids))
			}
			w0.warm.RetainSnapshots(keepSnapshots)
			return err
		}},
		{"W1.httpserve.ServeHTTP", func(i int, m mutation) error {
			_, err := serveDirect(w1.front, http.MethodPost, "/v1/mutate", bodies[i])
			w1.warm.RetainSnapshots(keepSnapshots)
			return err
		}},
		{"W2.icebergcube.Append+Commit", func(i int, m mutation) error {
			if err := w2.warm.Append(m.rows, m.meas); err != nil {
				return err
			}
			_, err := w2.warm.Commit()
			w2.warm.RetainSnapshots(keepSnapshots)
			return err
		}},
		{"W3.ingest.Cube+wal.Log", func(i int, m mutation) error {
			if err := c3.Append(m.keys, m.meas); err != nil {
				return err
			}
			_, err := c3.Commit()
			c3.Retain(keepSnapshots)
			return err
		}},
		{"W4.ingest.Cube", func(i int, m mutation) error {
			t0 := time.Now()
			if err := c4.Append(m.keys, m.meas); err != nil {
				return err
			}
			if timing {
				appendUS = append(appendUS, us(time.Since(t0)))
			}
			_, err := c4.Commit()
			c4.Retain(keepSnapshots)
			return err
		}},
		{"W5.wal.Log", func(i int, m mutation) error {
			version++
			t0 := time.Now()
			err := lg5.Append(&wal.Record{Type: wal.TypeAppend, Width: len(cards), Keys: m.keys, Meas: m.meas})
			t1 := time.Now()
			if err == nil {
				err = lg5.Append(&wal.Record{Type: wal.TypeCommit, Version: version, Resident: resident})
			}
			t2 := time.Now()
			if err == nil {
				err = lg5.Sync()
			}
			if timing {
				walAppendUS = append(walAppendUS, us(t1.Sub(t0)))
				walSyncMS = append(walSyncMS, ms(time.Since(t2)))
			}
			return err
		}},
	}
	// RetainSnapshots sits inside the rung closures but costs microseconds
	// against a commit's milliseconds; it is the same on every rung.
	for i := 0; i < warm; i++ {
		for _, rg := range rungs {
			if err := rg.commit(i, muts[i]); err != nil {
				return fmt.Errorf("%s: %w", rg.name, err)
			}
		}
	}
	r.step("write ladder warmed up")

	_, syncs0, _ := lg3.Stats()
	bytes0, err := dirBytes(filepath.Join(dir, "w3"))
	if err != nil {
		return err
	}
	timing = true
	dur := make([][]float64, len(rungs)) // ms
	r.spans = make([]span, 0, n*len(rungs))
	runtime.GC()
	for i := warm; i < warm+n; i++ {
		parent := ""
		for j, rg := range rungs {
			var err error
			d := r.timeSpan(rg.name, parent, i-warm, func() { err = rg.commit(i, muts[i]) })
			r.attempted.Add(1)
			if err != nil {
				r.fail("%s commit %d: %v", rg.name, i, err)
			}
			dur[j] = append(dur[j], ms(d))
			parent = rg.name
		}
	}
	r.step("write ladder traced")

	med := make([]float64, len(rungs))
	for j := range rungs {
		med[j] = median(dur[j])
	}
	t0 := append([]float64(nil), dur[0]...)
	sort.Float64s(t0)
	r.set("trace.t0_p50_ms", percentile(t0, 0.50))
	r.set("trace.t0_p99_ms", percentile(t0, 0.99))
	// Medians of per-commit differences; a layer that costs less than the
	// fold's own run-to-run noise can read negative.
	between := func(a, b []float64) float64 {
		v := make([]float64, len(a))
		for i := range a {
			v[i] = (a[i] - b[i]) * 1000
		}
		return median(v)
	}
	r.set("httpserve.socket_us", between(dur[0], dur[1]))
	r.set("httpserve.handler_us", between(dur[1], dur[2]))
	r.set("ingest.commit_ms", med[4])
	var appendSum float64
	for _, a := range appendUS {
		appendSum += a
	}
	r.set("ingest.append_us_per_row", ratio(appendSum, float64(len(appendUS)*batchRows)))
	r.set("ingest.commit_reported_ms", median(reportedMS))
	var foldedSum float64
	for _, f := range folded {
		foldedSum += f
	}
	r.set("ingest.folded_cuboids_per_commit", ratio(foldedSum, float64(len(folded))))
	r.set("wal.append_us", median(walAppendUS))
	r.set("wal.sync_ms", median(walSyncMS))
	_, syncs1, _ := lg3.Stats()
	bytes1, err := dirBytes(filepath.Join(dir, "w3"))
	if err != nil {
		return err
	}
	r.set("wal.syncs_per_commit", ratio(float64(syncs1-syncs0), float64(n)))
	r.set("wal.bytes_per_row", ratio(float64(bytes1-bytes0), float64(n*batchRows)))
	r.set("serve.resident_mb", float64(w0.warm.CacheMetrics().ResidentBytes)/(1<<20))
	adm := w0.front.Metrics().Admission
	r.set("httpserve.shed", float64(adm.ShedQueueFull+adm.ShedTenantRate))
	r.note("rung medians W0..W5: %.2f %.2f %.2f %.2f %.2f %.2f ms over %d commits of %d rows, 1 client",
		med[0], med[1], med[2], med[3], med[4], med[5], n, batchRows)
	r.note("self-time shares of W0: socket %.1f%% handler %.1f%% root encode %.1f%% wal %.1f%% ingest %.1f%% (W5 alone is %.1f%%)",
		100*(med[0]-med[1])/med[0], 100*(med[1]-med[2])/med[0], 100*(med[2]-med[3])/med[0],
		100*(med[3]-med[4])/med[0], 100*med[4]/med[0], 100*med[5]/med[0])

	ref, err := scratchReference(in, muts)
	if err != nil {
		return err
	}
	r.verifyCube("verify", cubs, overHTTP(w0), ref, uint64(len(muts)+1))
	return nil
}

// traceRecover enters recovery at three depths over one fixed history:
// R0 the root RecoverMaterialized, R1 ingest.Recover, R2 wal.Replay.
func (r *run) traceRecover() error {
	h, err := r.buildHistory(r.sz.history)
	defer h.close()
	if err != nil {
		return err
	}
	logDir := filepath.Join(h.st.dir, "log")
	version := uint64(len(h.acked) + 1)
	n := 2 * scaled(r.sz.recovers, r.cfg.seconds, 2) // two passes' worth
	var dur [3][]float64                             // ms
	for i := 0; i < n; i++ {
		runtime.GC()
		var m *icebergcube.Materialized
		var err error
		d := r.timeSpan("R0.icebergcube.RecoverMaterialized", "", i, func() {
			m, err = icebergcube.RecoverMaterialized(h.in.ds, h.in.serveDims, logDir)
		})
		r.attempted.Add(1)
		if err != nil {
			return err
		}
		dur[0] = append(dur[0], ms(d))
		if m.Version() != version {
			r.fail("recovered version %d, want %d", m.Version(), version)
		}
		if i == n-1 {
			m.RetainSnapshots(1)
			ref, err := scratchReference(h.in, h.acked)
			if err != nil {
				return err
			}
			r.verifyCube("verify recovered", allCuboids(h.in.serveDims), inProcess(m), ref, version)
		}
		if err := m.Close(); err != nil {
			return err
		}
		m = nil

		runtime.GC()
		var cube *ingest.Cube
		d = r.timeSpan("R1.ingest.Recover", "R0.icebergcube.RecoverMaterialized", i, func() {
			cube, err = ingest.Recover(wal.DirFS{}, logDir, 0, wal.Options{}, nil)
		})
		if err != nil {
			return err
		}
		dur[1] = append(dur[1], ms(d))
		if err := cube.Close(); err != nil {
			return err
		}
		cube = nil

		runtime.GC()
		d = r.timeSpan("R2.wal.Replay", "R1.ingest.Recover", i, func() {
			_, err = wal.Replay(wal.DirFS{}, logDir)
		})
		if err != nil {
			return err
		}
		dur[2] = append(dur[2], ms(d))
	}
	med := [3]float64{median(dur[0]), median(dur[1]), median(dur[2])}
	r.set("trace.t0_p50_ms", med[0])
	sort.Float64s(dur[0])
	r.set("trace.t0_p99_ms", percentile(dur[0], 0.99))
	r.set("ingest.recover_ms_per_commit", (med[1]-med[2])/float64(len(h.acked)))
	r.set("wal.replay_ms", med[2])
	r.note("rung medians R0..R2: %.1f %.1f %.1f ms over %d recoveries of %d logged commits", med[0], med[1], med[2], n, len(h.acked))
	return nil
}
