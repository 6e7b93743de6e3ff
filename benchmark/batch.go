package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/relation"
)

// cube_batch is the paper's own job. Its ops are whole jobs, three a
// pass in seeded order: Compute PT and Compute BPP over the batch cube at
// minimum support 2 on 8 workers, and ComputeOutOfCore over the flushed
// serving table. The three take about as long as each other, so a pass's
// median is the middle job, its p90 the slowest, and its throughput
// weighs all three alike; the median over the passes is what is reported.
type job struct {
	name string
	run  func() (cells int, err error)
}

func batchQuery(dims []string, algo icebergcube.Algorithm) icebergcube.Query {
	return icebergcube.Query{Dims: dims, MinSupport: minSupport, Algorithm: algo, Workers: cubeWorkers, Parallel: true}
}

// batchState keeps one pass's results: for the heap they retain, and for
// the checks that follow the last pass.
type batchState struct {
	in       *inputs
	table    string // the flushed serving table
	oocLimit int64
	pt, bpp  *icebergcube.Result
	ooc      *icebergcube.Result
	oocStats *icebergcube.OutOfCoreStats
}

func (b *batchState) compute(algo icebergcube.Algorithm, into **icebergcube.Result) job {
	return job{string(algo), func() (int, error) {
		res, err := icebergcube.Compute(b.in.ds, batchQuery(b.in.batchDims, algo))
		if err != nil {
			return 0, err
		}
		*into = res
		return res.NumCells(), nil
	}}
}

func (b *batchState) outOfCore() job {
	return job{"OOC", func() (int, error) {
		// Depth-first BUC over every column of the table, which are the
		// serving dimensions.
		res, st, err := icebergcube.ComputeOutOfCore(b.table, icebergcube.Query{MinSupport: minSupport}, b.oocLimit)
		if err != nil {
			return 0, err
		}
		b.ooc, b.oocStats = res, st
		return res.NumCells(), nil
	}}
}

func (r *run) cubeBatch() error {
	sv, err := r.setUpServed(tierCold, 0, false) // generate, materialize, flush
	if err != nil {
		return err
	}
	defer sv.close()
	b := &batchState{in: sv.in, table: filepath.Join(sv.st.dir, "table"), oocLimit: r.sz.oocLimit}
	if r.cfg.trace {
		return r.traceBatch(b, sv.st)
	}

	jobs := []job{b.compute(icebergcube.PT, &b.pt), b.compute(icebergcube.BPP, &b.bpp), b.outOfCore()}
	timed := scaled(3, r.cfg.seconds, 1)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	wantCells := make(map[string]int)
	err = r.passes(0, timed, func() (pass, error) {
		// A pass starts with nothing of the last one's in memory, and each
		// job with the garbage of the one before collected.
		b.pt, b.bpp, b.ooc = nil, nil, nil
		order := rng.Perm(len(jobs))
		r.seq = append(r.seq, order...)
		lat := make([]time.Duration, 0, len(jobs))
		var busy time.Duration
		for _, j := range order {
			runtime.GC()
			t0 := time.Now()
			cells, err := jobs[j].run()
			d := time.Since(t0)
			lat = append(lat, d)
			busy += d
			r.attempted.Add(1)
			if err != nil {
				return pass{}, fmt.Errorf("%s: %w", jobs[j].name, err)
			}
			if want, seen := wantCells[jobs[j].name]; seen && want != cells {
				r.fail("%s: %d cells, an earlier pass had %d", jobs[j].name, cells, want)
			}
			wantCells[jobs[j].name] = cells
			r.step(fmt.Sprintf("%s: %d cells in %.3f s", jobs[j].name, cells, d.Seconds()))
		}
		return summarize(lat, busy), nil
	})
	if err != nil {
		return err
	}
	r.note("op = one whole job: Compute PT, Compute BPP (%d dims, %d workers), ComputeOutOfCore (%d B limit)",
		len(b.in.batchDims), cubeWorkers, b.oocLimit)
	return r.verifyBatch(b)
}

// verifyBatch: PT, BPP and out-of-core results equal per cuboid. The
// out-of-core cube is compared whole with an in-core reference over the
// same six dimensions; PT and BPP over the batch dimensions are compared
// by their cell and cuboid counts and, cell for cell, on every group-by
// of at most two dimensions (Result.Cuboid sorts each cuboid it returns
// with allocating comparisons; the whole batch cube would take longer
// than the benchmark).
func (r *run) verifyBatch(b *batchState) error {
	if err := r.verifyPTvsBPP(b); err != nil {
		return err
	}
	ref, err := reference(b.in.ds, b.in.serveDims)
	if err != nil {
		return err
	}
	r.verifyCube("verify out-of-core", allCuboids(b.in.serveDims), func(c cuboid) (uint64, []icebergcube.Cell, error) {
		cells, err := b.ooc.Cuboid(c.groupBy...)
		return 0, cells, err
	}, ref, 0)
	return nil
}

func (r *run) verifyPTvsBPP(b *batchState) error {
	r.attempted.Add(1)
	if b.pt.NumCells() != b.bpp.NumCells() || b.pt.NumCuboids() != b.bpp.NumCuboids() {
		r.fail("PT has %d cells in %d cuboids, BPP %d in %d", b.pt.NumCells(), b.pt.NumCuboids(), b.bpp.NumCells(), b.bpp.NumCuboids())
	}
	dims := b.in.batchDims
	small := [][]string{nil}
	for i := range dims {
		small = append(small, []string{dims[i]})
		for j := i + 1; j < len(dims); j++ {
			small = append(small, []string{dims[i], dims[j]})
		}
	}
	for _, gb := range small {
		r.attempted.Add(1)
		p, err := b.pt.Cuboid(gb...)
		if err != nil {
			return err
		}
		q, err := b.bpp.Cuboid(gb...)
		if err != nil {
			return err
		}
		if err := sameCells(p, q); err != nil {
			r.fail("PT vs BPP %v: %v", gb, err)
		}
	}
	return nil
}

// traceBatch enters the batch path at three depths: the root Compute
// (into a results.Set), core.PT and core.BPP with no sink at all, and the
// sort kernel alone.
func (r *run) traceBatch(b *batchState, st *stack) error {
	in := b.in
	bare := func(algo func(core.Run) (*core.Report, error)) (*core.Report, error) {
		return algo(core.Run{
			Rel: in.rel, Dims: in.batchIdx, Cond: agg.MinSupport(minSupport),
			Workers: cubeWorkers, Parallel: true, Seed: 1,
		})
	}
	var ptRep, bppRep *core.Report
	span := func(name, parent string, op int, f func() error) (time.Duration, error) {
		runtime.GC()
		var err error
		d := r.timeSpan(name, parent, op, func() { err = f() })
		r.attempted.Add(1)
		return d, err
	}
	rootPT, err := span("B0.icebergcube.Compute.PT", "", 0, func() error { _, err := b.compute(icebergcube.PT, &b.pt).run(); return err })
	if err != nil {
		return err
	}
	pt, err := span("B1.core.PT", "B0.icebergcube.Compute.PT", 0, func() (err error) { ptRep, err = bare(core.PT); return })
	if err != nil {
		return err
	}
	rootBPP, err := span("B0.icebergcube.Compute.BPP", "", 1, func() error { _, err := b.compute(icebergcube.BPP, &b.bpp).run(); return err })
	if err != nil {
		return err
	}
	bpp, err := span("B1.core.BPP", "B0.icebergcube.Compute.BPP", 1, func() (err error) { bppRep, err = bare(core.BPP); return })
	if err != nil {
		return err
	}
	ooc, err := span("B0.icebergcube.ComputeOutOfCore", "", 2, func() error { _, err := b.outOfCore().run(); return err })
	if err != nil {
		return err
	}
	top := []float64{ms(rootPT), ms(rootBPP), ms(ooc)}
	sort.Float64s(top)
	r.set("trace.t0_p50_ms", top[1])
	r.set("trace.t0_p99_ms", top[2])
	r.set("core.pt_s", pt.Seconds())
	r.set("core.bpp_s", bpp.Seconds())
	r.set("results.sink_s", ((rootPT-pt)+(rootBPP-bpp)).Seconds()/2)
	r.note("jobs: Compute PT %.3f s (core.PT %.3f s), Compute BPP %.3f s (core.BPP %.3f s), ComputeOutOfCore %.3f s",
		rootPT.Seconds(), pt.Seconds(), rootBPP.Seconds(), bpp.Seconds(), ooc.Seconds())

	// The sort kernel over the batch dimensions, alone.
	rows := in.rel.Len()
	scratch := relation.NewScratch()
	var sorts []float64
	for i := 0; i < 3; i++ {
		idx := in.rel.Identity()
		d := r.timeSpan("B2.relation.SortViewScratch", "B1.core.PT", 3+i, func() {
			in.rel.SortViewScratch(idx, in.batchIdx, nil, scratch)
		})
		sorts = append(sorts, float64(d.Nanoseconds())/float64(rows))
	}
	r.set("relation.sort_ns_per_row", median(sorts))

	// Exact counters. The virtual clocks come from BPP, whose static
	// partitioning repeats exactly; PT hands tasks out on demand to real
	// goroutines, so its makespan differs from run to run.
	r.set("core.virtual_makespan_s", bppRep.Makespan)
	r.set("core.cells_written", float64(ptRep.Totals().CellsWritten))
	loads := bppRep.Loads()
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	r.set("cluster.load_imbalance", ratio(max, sum/float64(len(loads))))
	oc := b.oocStats
	r.set("core.spill_peak_mb", float64(oc.PeakBytes)/(1<<20))
	r.set("core.spill_bytes", float64(oc.BytesSpilled))
	r.set("segment.read_s", oc.IO.ReadSeconds)
	r.set("segment.bytes_read_per_query", float64(oc.IO.BytesRead))
	r.set("segment.blocks_skipped_share", ratio(float64(oc.IO.BlocksSkipped), float64(oc.IO.BlocksScanned+oc.IO.BlocksSkipped)))
	if err := r.setSegmentShape(st, b.table, int64(rows)); err != nil {
		return err
	}

	// Correctness: the sink-less runs wrote as many cells as the root
	// run kept, and the out-of-core cube matches the in-core one.
	r.attempted.Add(1)
	if got, want := ptRep.Totals().CellsWritten, int64(b.pt.NumCells()); got != want || bppRep.Totals().CellsWritten != want {
		r.fail("cells written: core.PT %d, core.BPP %d, Compute kept %d", got, bppRep.Totals().CellsWritten, want)
	}
	return r.verifyBatch(b)
}

// setSegmentShape reports the flushed table's size per row and how fast
// it was written.
func (r *run) setSegmentShape(st *stack, table string, rows int64) error {
	n, err := dirBytes(table)
	if err != nil {
		return err
	}
	r.set("segment.bytes_per_row", ratio(float64(n), float64(rows)))
	r.set("segment.write_rows_per_s", ratio(float64(rows), st.flush.Seconds()))
	return nil
}
