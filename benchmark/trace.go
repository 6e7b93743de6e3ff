package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
	"icebergcube/internal/segment"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// The traced run times the calls into each layer's public functions from
// outside. It does not nest them: rung k of the ladder is its own,
// separately constructed stack, entered one layer further down than rung
// k-1 and fed the identical op sequence with the identical cache budget.
// With one client an LRU cache is deterministic, so the rungs' cache
// states stay in lock-step and, op for op, rung k's time minus rung
// k+1's is what the layer between them cost.

// span is one timed call. Rung k's span is the parent of rung k+1's for
// the same op, so a layer's self time is its span minus its child's.
type span struct {
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// timeSpan runs f as one span.
func (r *run) timeSpan(name, parent string, op int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.spans = append(r.spans, span{name, op, parent, t0.Sub(r.started).Nanoseconds(), t1.Sub(r.started).Nanoseconds()})
	return t1.Sub(t0)
}

// writeSpans writes the spans kept in memory to
// <out>/trace-<workload>.jsonl, one JSON object a line.
func (r *run) writeSpans() error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	path := filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".jsonl")
	r.note("%d spans written to %s", len(r.spans), path)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// discardWriter is the recorder ServeHTTP rungs write to: it counts the
// body and keeps nothing.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (w *discardWriter) Header() http.Header  { return w.header }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// serveDirect calls the front-end's ServeHTTP without a socket.
func serveDirect(front *httpserve.Server, method, path, body string) (int64, error) {
	req, err := http.NewRequest(method, path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	w := &discardWriter{header: http.Header{}, status: http.StatusOK}
	front.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return w.n, fmt.Errorf("%s %s: status %d", method, path, w.status)
	}
	return w.n, nil
}

// coldAdapter is the harness's own serve.ColdSource over a segment
// table, so the cold ladder can enter below the root package.
type coldAdapter struct{ tab *segment.Table }

func (c coldAdapter) Width() int { return len(c.tab.Names()) }
func (c coldAdapter) Rows() int  { return int(c.tab.Rows()) }

// projection is the column list a cold scan for dims asks the table for
// (an empty, non-nil list reads the measure only).
func projection(dims []int) []int {
	if dims == nil {
		return []int{}
	}
	return dims
}

func (c coldAdapter) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	dense := make([][]uint32, len(dims))
	return c.tab.Scan(segment.ScanOptions{Cols: projection(dims), Meas: true}, func(ch *segment.Chunk) error {
		for i, d := range dims {
			dense[i] = ch.Cols[d]
		}
		return yield(dense, ch.Meas)
	})
}

// callInfo is what a rung reports about one call, as far as it can see.
type callInfo struct {
	bytes   int64 // response body bytes (T0–T2)
	cells   int   // cells in the answer (T3)
	hit     bool  // T4: the cuboid was resident
	cold    bool  // T4: the segment store was streamed
	scanned int   // T4: ancestor cells aggregated
}

// rung is one level of a ladder.
type rung struct {
	name string
	call func(c cuboid) (callInfo, error)
}

// readLadder builds the read ladder's stacks: T0–T3 are whole stacks
// entered ever lower, T4 is a bare serving core over the same leaf.
type readLadder struct {
	stacks []*stack // T0..T3
	rungs  []rung
	tab    *segment.Table // cold only: what T4 and T5 read
}

func (l *readLadder) close() {
	for _, s := range l.stacks {
		s.close()
	}
}

func (r *run) newReadLadder(in *inputs, spec readSpec) (*readLadder, error) {
	l := &readLadder{}
	for k := 0; k < 4; k++ {
		st, err := newStack(in, spec.tier, spec.budget, r.cfg.outDir, k == 0)
		if err != nil {
			l.close()
			return nil, err
		}
		l.stacks = append(l.stacks, st)
	}
	t0, t1, t2, t3 := l.stacks[0], l.stacks[1], l.stacks[2], l.stacks[3]
	ctx := context.Background()
	l.rungs = []rung{
		{"T0.http", func(c cuboid) (callInfo, error) {
			n, err := t0.get(c.path)
			return callInfo{bytes: n}, err
		}},
		{"T1.httpserve.ServeHTTP", func(c cuboid) (callInfo, error) {
			n, err := serveDirect(t1.front, http.MethodGet, c.path, "")
			return callInfo{bytes: n}, err
		}},
		{"T2.httpserve.EncodeQuery", func(c cuboid) (callInfo, error) {
			body, err := httpserve.EncodeQuery(ctx, t2.back, c.groupBy, minSupport)
			return callInfo{bytes: int64(len(body))}, err
		}},
		{"T3.icebergcube.AnswerEach", func(c cuboid) (callInfo, error) {
			var info callInfo
			_, err := t3.back.AnswerEach(ctx, c.groupBy, minSupport, func(icebergcube.Cell) error {
				info.cells++
				return nil
			})
			return info, err
		}},
	}
	if spec.tier == tierCold {
		tab, err := segment.Open(wal.DirFS{}, filepath.Join(t3.dir, "table"))
		if err != nil {
			l.close()
			return nil, err
		}
		srv, err := serve.NewColdServer(coldAdapter{tab}, tab.Cards(), spec.budget)
		if err != nil {
			l.close()
			return nil, err
		}
		l.tab = tab
		l.rungs = append(l.rungs, rung{"T4.serve.ColdServer.QueryCtx", func(c cuboid) (callInfo, error) {
			_, qs, err := srv.QueryCtx(ctx, c.mask)
			return callInfo{hit: qs.CacheHit, cold: qs.ColdScan, scanned: qs.CellsScanned}, err
		}})
		return l, nil
	}
	leaf, _, _, cards, err := leafOf(in)
	if err != nil {
		l.close()
		return nil, err
	}
	srv := serve.NewServer(leaf, cards, spec.budget)
	l.rungs = append(l.rungs, rung{"T4.serve.Server.QueryCtx", func(c cuboid) (callInfo, error) {
		_, qs, err := srv.QueryCtx(ctx, c.mask)
		return callInfo{hit: qs.CacheHit, scanned: qs.CellsScanned}, err
	}})
	return l, nil
}

// each calls every rung once for c, untimed — how warm-up keeps the
// ladder's caches in lock-step.
func (l *readLadder) each(c cuboid) error {
	for _, rg := range l.rungs {
		if _, err := rg.call(c); err != nil {
			return fmt.Errorf("%s %v: %w", rg.name, c.groupBy, err)
		}
	}
	return nil
}

// serveCounters is the slice of a stack's own serving statistics the
// per-layer metrics read, for either tier.
type serveCounters struct {
	queries, hits, ancestor, leafOrCold, evictions int64
	residentBytes                                  int64
	io                                             icebergcube.SegmentIOStats
}

func countersOf(st *stack) serveCounters {
	if st.cold != nil {
		m := st.cold.Metrics()
		return serveCounters{queries: m.Queries, hits: m.CacheHits, ancestor: m.AncestorAggregations,
			leafOrCold: m.ColdScans, residentBytes: m.ResidentBytes, io: m.IO}
	}
	m := st.warm.CacheMetrics()
	return serveCounters{queries: m.Queries, hits: m.CacheHits, ancestor: m.AncestorAggregations,
		leafOrCold: m.LeafAggregations, evictions: m.Evictions, residentBytes: m.ResidentBytes}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceReads is the traced run of the three read-only serving workloads.
func (r *run) traceReads(spec readSpec) error {
	in := newInputs(r.sz.tuples)
	l, err := r.newReadLadder(in, spec)
	if err != nil {
		return err
	}
	defer l.close()
	t0 := l.stacks[0]
	cubs := allCuboids(in.serveDims)
	r.step("ladder built")

	// The start of the untraced run's pass — a quarter of a Zipf pass, half
	// a permutation of a uniform one — after the same preparation on every
	// rung: the sizing sweep for a Zipf workload, then a few ops untimed,
	// which is enough to fill a cache that holds a handful of cuboids.
	n := scaled(spec.ops, r.cfg.seconds, len(cubs)/2)
	ops, err := r.readOps(spec, t0, cubs, n)
	if err != nil {
		return err
	}
	if spec.zipf {
		ops = ops[:(len(ops)+3)/4]
		for _, c := range cubs { // readOps sized, and so warmed, T0's cube; the others follow
			if err := l.each(c); err != nil {
				return err
			}
		}
	} else {
		ops = ops[:len(cubs)/2]
	}
	for _, i := range ops[:min(len(ops), len(cubs)/4)] {
		if err := l.each(cubs[i]); err != nil {
			return err
		}
	}
	r.step("ladder warm")

	before := countersOf(t0)
	k := len(l.rungs)
	dur := make([][]time.Duration, k+1) // [rung][op]; the last row is the cold tier's T5
	for i := range dur {
		dur[i] = make([]time.Duration, len(ops))
	}
	info := make([]callInfo, len(ops)) // merged across rungs
	r.spans = make([]span, 0, len(ops)*(k+1))
	got := make([]callInfo, k)
	runtime.GC()
	for i, ci := range ops {
		c := cubs[ci]
		parent := ""
		for j, rg := range l.rungs {
			var err error
			dur[j][i] = r.timeSpan(rg.name, parent, i, func() { got[j], err = rg.call(c) })
			r.attempted.Add(1)
			if err != nil {
				r.fail("%s %v: %v", rg.name, c.groupBy, err)
			}
			parent = rg.name
		}
		info[i] = callInfo{bytes: got[0].bytes, cells: got[3].cells, hit: got[4].hit, cold: got[4].cold, scanned: got[4].scanned}
		// The rungs must have produced the same answer, or they were not
		// in lock-step and their differences mean nothing.
		r.attempted.Add(1)
		if got[1].bytes != got[0].bytes || got[2].bytes != got[0].bytes {
			r.fail("rungs disagree on %v: %d, %d and %d body bytes", c.groupBy, got[0].bytes, got[1].bytes, got[2].bytes)
		}
		if info[i].cold {
			cols := projection(c.mask.Dims())
			dur[k][i] = r.timeSpan("T5.segment.Table.Scan", parent, i, func() {
				err := l.tab.Scan(segment.ScanOptions{Cols: cols, Meas: true}, func(*segment.Chunk) error { return nil })
				if err != nil {
					r.fail("T5 scan %v: %v", c.groupBy, err)
				}
			})
		}
	}
	after := countersOf(t0)
	r.step("ladder traced")

	// Rung medians and their differences.
	med := make([]float64, k)
	for j := 0; j < k; j++ {
		v := make([]float64, len(ops))
		for i, d := range dur[j] {
			v[i] = us(d)
		}
		med[j] = median(v)
	}
	t0ms := make([]float64, len(ops))
	for i, d := range dur[0] {
		t0ms[i] = ms(d)
	}
	sort.Float64s(t0ms)
	r.set("trace.t0_p50_ms", percentile(t0ms, 0.50))
	r.set("trace.t0_p99_ms", percentile(t0ms, 0.99))
	// The fixed per-request layers are medians of per-op differences: the
	// op is the same on both rungs, so its size cancels out.
	between := func(a, b []time.Duration) float64 {
		v := make([]float64, len(a))
		for i := range a {
			v[i] = us(a[i] - b[i])
		}
		return median(v)
	}
	r.set("httpserve.socket_us", between(dur[0], dur[1]))
	r.set("httpserve.handler_us", between(dur[1], dur[2]))
	r.note("rung medians T0..T4: %.1f %.1f %.1f %.1f %.1f us over %d ops, 1 client", med[0], med[1], med[2], med[3], med[4], len(ops))

	// Per-cell and per-outcome costs are sums over ops, so the big
	// answers weigh as they do in the tail.
	var sum [6]float64 // self time per layer, us: socket, handler, encode, decode, serve hit, serve miss
	var cells, bytes, scanned float64
	var hitUS, foldMS, scanMS []float64
	var deriveUS, deriveCells float64
	for i := range ops {
		sum[0] += us(dur[0][i] - dur[1][i])
		sum[1] += us(dur[1][i] - dur[2][i])
		sum[2] += us(dur[2][i] - dur[3][i])
		sum[3] += us(dur[3][i] - dur[4][i])
		cells += float64(info[i].cells)
		bytes += float64(info[i].bytes)
		scanned += float64(info[i].scanned)
		switch {
		case info[i].hit:
			sum[4] += us(dur[4][i])
			hitUS = append(hitUS, us(dur[4][i]))
		case info[i].cold:
			sum[5] += us(dur[4][i])
			foldMS = append(foldMS, ms(dur[4][i]-dur[k][i]))
			scanMS = append(scanMS, ms(dur[k][i]))
		default:
			sum[5] += us(dur[4][i])
			deriveUS += us(dur[4][i])
			deriveCells += float64(info[i].scanned)
		}
	}
	r.set("httpserve.encode_us_per_cell", ratio(sum[2], cells))
	r.set("httpserve.bytes_per_cell", ratio(bytes, cells))
	r.set("icebergcube.decode_us_per_cell", ratio(sum[3], cells))
	r.set("serve.hit_us", median(hitUS))
	r.set("serve.derive_us_per_kcell", ratio(deriveUS, deriveCells)*1000)
	r.set("serve.cold_fold_ms", median(foldMS))
	r.set("segment.scan_ms", median(scanMS))
	r.set("serve.cells_scanned_per_query", ratio(scanned, float64(len(ops))))
	var total float64
	for _, s := range sum {
		total += s
	}
	r.note("self-time shares of T0: socket %.1f%% handler %.1f%% encode %.1f%% decode %.1f%% serve-hit %.1f%% serve-derive %.1f%%",
		100*sum[0]/total, 100*sum[1]/total, 100*sum[2]/total, 100*sum[3]/total, 100*sum[4]/total, 100*sum[5]/total)

	// Counters, from T0's own public statistics, over the traced ops.
	q := float64(after.queries - before.queries)
	misses := float64(after.ancestor - before.ancestor + after.leafOrCold - before.leafOrCold)
	r.set("serve.hit_ratio", ratio(float64(after.hits-before.hits), q))
	r.set("serve.ancestor_share", ratio(float64(after.ancestor-before.ancestor), misses))
	r.set("serve.evictions", float64(after.evictions-before.evictions))
	r.set("serve.resident_mb", float64(after.residentBytes)/(1<<20))
	adm := t0.front.Metrics().Admission
	r.set("httpserve.shed", float64(adm.ShedQueueFull+adm.ShedTenantRate))
	if t0.cold != nil {
		io, io0 := after.io, before.io
		r.set("segment.read_s", io.ReadSeconds-io0.ReadSeconds)
		r.set("segment.bytes_read_per_query", ratio(float64(io.BytesRead-io0.BytesRead), q))
		blocks := float64(io.BlocksScanned - io0.BlocksScanned + io.BlocksSkipped - io0.BlocksSkipped)
		r.set("segment.blocks_skipped_share", ratio(float64(io.BlocksSkipped-io0.BlocksSkipped), blocks))
		if err := r.setSegmentShape(t0, filepath.Join(t0.dir, "table"), l.tab.Rows()); err != nil {
			return err
		}
	}

	// Allocations per cell of the root decode loop, on the finest cuboid,
	// with nothing else running.
	finest := cubs[len(cubs)-1]
	var m0, m1 runtime.MemStats
	var n3 callInfo
	runtime.ReadMemStats(&m0)
	n3, err = l.rungs[3].call(finest)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.set("icebergcube.allocs_per_cell", ratio(float64(m1.Mallocs-m0.Mallocs), float64(n3.cells)))

	ref, err := reference(in.ds, in.serveDims)
	if err != nil {
		return err
	}
	var version uint64
	if t0.warm != nil {
		version = 1
	}
	r.verifyCube("verify", cubs, overHTTP(t0), ref, version)
	return nil
}
