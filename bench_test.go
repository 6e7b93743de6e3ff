package icebergcube

// One benchmark per table/figure of the paper's evaluation (regenerating
// its series at a bench-friendly scale), plus the algorithm-level and
// ablation benches DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// cmd/cubebench prints the same series as tables; EXPERIMENTS.md records
// the full-scale numbers.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/cost"
	"icebergcube/internal/disk"
	"icebergcube/internal/exp"
	"icebergcube/internal/gen"
	"icebergcube/internal/lattice"
	"icebergcube/internal/online"
	"icebergcube/internal/relation"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

const benchTuples = 8000

func benchConfig() exp.Config { return exp.Config{Tuples: benchTuples} }

// runExpBench benchmarks a registered experiment by ID. The registry's
// Scaled hook supplies the per-experiment workload adjustment, so the
// benchmarked Config is exactly what `cubebench -exp <id> -tuples 8000`
// runs.
func runExpBench(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := e.Scaled(benchConfig())
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the paper's tables and figures ---

func BenchmarkTable1_1_Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := exp.Table1_1(); len(tbl.Notes) != 4 {
			b.Fatal("features table incomplete")
		}
	}
}

func BenchmarkFig3_6_IO(b *testing.B)             { runExpBench(b, "fig3.6") }
func BenchmarkFig4_1_Load(b *testing.B)           { runExpBench(b, "fig4.1") }
func BenchmarkFig4_2_Scalability(b *testing.B)    { runExpBench(b, "fig4.2") }
func BenchmarkFig4_3_ProblemSize(b *testing.B)    { runExpBench(b, "fig4.3") }
func BenchmarkFig4_4_Dimensions(b *testing.B)     { runExpBench(b, "fig4.4") }
func BenchmarkFig4_5_MinSup(b *testing.B)         { runExpBench(b, "fig4.5") }
func BenchmarkFig4_6_Sparseness(b *testing.B)     { runExpBench(b, "fig4.6") }
func BenchmarkSec5_1_Materialize(b *testing.B)    { runExpBench(b, "sec5.1") }
func BenchmarkFig5_3_POLScalability(b *testing.B) { runExpBench(b, "fig5.3") }
func BenchmarkFig5_4_BufferSize(b *testing.B)     { runExpBench(b, "fig5.4") }

// BenchmarkServe measures the serving layer's regimes on the
// weather-shaped dataset against the legacy full-leaf rescan it replaced.
// The acceptance bar for the serving PR: ancestor/cache-served coarse
// group-bys ≥5× faster than LegacyLeafRescan, with fewer allocs/op on the
// hit path.
func BenchmarkServe(b *testing.B) {
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(9, 13)
	mat, err := Materialize(ds, dims, 8)
	if err != nil {
		b.Fatal(err)
	}
	groupBy := dims[:2]  // the coarse query under test
	ancestor := dims[:3] // its cached 3-dim ancestor

	b.Run("LegacyLeafRescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mat.answerLeafRescan(groupBy, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ColdMiss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mat.ResetCache()
			if _, err := mat.Answer(groupBy, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AncestorHit", func(b *testing.B) {
		mat.ResetCache()
		if _, err := mat.Answer(ancestor, 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mat.invalidate(groupBy); err != nil {
				b.Fatal(err)
			}
			cells, stats, err := mat.AnswerStats(groupBy, 2)
			if err != nil {
				b.Fatal(err)
			}
			if stats.CacheHit || len(stats.ServedFrom) != len(ancestor) {
				b.Fatalf("not served from the 3-dim ancestor: %+v", stats)
			}
			if len(cells) == 0 {
				b.Fatal("empty answer")
			}
		}
	})
	b.Run("CacheHit", func(b *testing.B) {
		if _, err := mat.Answer(groupBy, 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cells, stats, err := mat.AnswerStats(groupBy, 2)
			if err != nil {
				b.Fatal(err)
			}
			if !stats.CacheHit {
				b.Fatalf("expected a cache hit: %+v", stats)
			}
			if len(cells) == 0 {
				b.Fatal("empty answer")
			}
		}
	})
	// The maintenance bar: an incremental commit folds resident cuboids
	// forward, so the warm-hit path must survive a commit at hit cost.
	b.Run("PostCommitWarmHit", func(b *testing.B) {
		if _, err := mat.Answer(groupBy, 2); err != nil {
			b.Fatal(err)
		}
		rows, meas := benchMutationBatch(b, ds, dims, 16, 3)
		if err := mat.Append(rows, meas); err != nil {
			b.Fatal(err)
		}
		if _, err := mat.Commit(); err != nil {
			b.Fatal(err)
		}
		mat.RetainSnapshots(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cells, stats, err := mat.AnswerStats(groupBy, 2)
			if err != nil {
				b.Fatal(err)
			}
			if !stats.CacheHit {
				b.Fatalf("warm cuboid lost across the commit: %+v", stats)
			}
			if len(cells) == 0 {
				b.Fatal("empty answer")
			}
		}
	})
}

// BenchmarkServePrecompute measures the bulk warm crash recovery runs:
// Precompute of every group-by but the leaf (63 masks) of the weather
// serving cube — the benchmark's 6-dimension pick at the paper's 176,631
// tuples — into a fresh server whose budget holds them all. rows/op is
// the source rows the derivations scanned: 63 × leaf rows if every
// cuboid were derived from the leaf.
func BenchmarkServePrecompute(b *testing.B) {
	ds := SyntheticWeather(176631, 2001)
	mat, err := Materialize(ds, ds.PickDimsByCardinalityProduct(6, 7), 8)
	if err != nil {
		b.Fatal(err)
	}
	srv := mat.cube.Current().Srv
	leaf := srv.Leaf()
	masks := make([]lattice.Mask, 0, leaf.Mask)
	for m := lattice.Mask(0); m < leaf.Mask; m++ {
		masks = append(masks, m)
	}
	var scanned int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.NewServer(leaf, srv.Cards(), 1<<40)
		if n, _ := s.Precompute(masks); n != len(masks) {
			b.Fatalf("admitted %d of %d", n, len(masks))
		}
		for _, cs := range s.CuboidStats() {
			scanned += cs.DeriveCells
		}
	}
	b.ReportMetric(float64(scanned)/float64(b.N), "rows/op")
}

// benchMutationBatch draws n rows inside the data set's existing code
// space (synthetic data sets take decimal code strings).
func benchMutationBatch(b *testing.B, ds *Dataset, dims []string, n int, seed int64) ([][]string, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	cards := make([]int, len(dims))
	for i, d := range dims {
		c, err := ds.Cardinality(d)
		if err != nil {
			b.Fatal(err)
		}
		cards[i] = c
	}
	rows := make([][]string, n)
	meas := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(dims))
		for d := range dims {
			row[d] = strconv.Itoa(rng.Intn(cards[d]))
		}
		rows[i] = row
		meas[i] = float64(rng.Intn(100))
	}
	return rows, meas
}

// BenchmarkCommit measures the incremental write path: Empty is the
// version-publish floor (no delta, residents carried over), Churn64
// appends and then deletes a 64-row batch across two commits — the leaf
// and measure column return to steady state every iteration, so allocs/op is
// deterministic and benchguard-gated.
func BenchmarkCommit(b *testing.B) {
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(9, 13)
	setup := func(b *testing.B) *Materialized {
		b.Helper()
		mat, err := Materialize(ds, dims, 8)
		if err != nil {
			b.Fatal(err)
		}
		// Keep cuboids resident so every commit exercises fold-forward.
		if _, err := mat.Answer(dims[:2], 2); err != nil {
			b.Fatal(err)
		}
		if _, err := mat.Answer(dims[:3], 2); err != nil {
			b.Fatal(err)
		}
		return mat
	}
	b.Run("Empty", func(b *testing.B) {
		mat := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mat.Commit(); err != nil {
				b.Fatal(err)
			}
			mat.RetainSnapshots(1)
		}
	})
	b.Run("Churn64", func(b *testing.B) {
		mat := setup(b)
		rows, meas := benchMutationBatch(b, ds, dims, 64, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mat.Append(rows, meas); err != nil {
				b.Fatal(err)
			}
			if _, err := mat.Commit(); err != nil {
				b.Fatal(err)
			}
			if err := mat.Delete(rows, meas); err != nil {
				b.Fatal(err)
			}
			if _, err := mat.Commit(); err != nil {
				b.Fatal(err)
			}
			mat.RetainSnapshots(1)
		}
	})
}

func BenchmarkFig4_7_Recipe(b *testing.B) {
	profiles := []Profile{
		{Tuples: 176631, Dims: 9, CardinalityProduct: 1e13},
		{Tuples: 176631, Dims: 9, CardinalityProduct: 1e7},
		{Tuples: 176631, Dims: 4, CardinalityProduct: 1e6},
		{Tuples: 176631, Dims: 13, CardinalityProduct: 1e21},
		{Tuples: 176631, Dims: 9, MemoryConstrained: true},
		{Tuples: 1000000, Dims: 12, OnlineRefinement: true},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			if rec := Recommend(p); rec.Reason == "" {
				b.Fatal("recommendation without reason")
			}
		}
	}
}

// --- per-algorithm benches on the baseline workload ---

func benchWorkload(b *testing.B) (*relation.Relation, []int) {
	b.Helper()
	rel := gen.Weather(benchTuples, 2001)
	return rel, gen.PickDimsByProduct(rel, 9, 13)
}

func BenchmarkAlgorithm(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, name := range exp.CubeAlgorithms {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, Seed: 1}
				var err error
				switch name {
				case "RP":
					_, err = core.RP(run)
				case "BPP":
					_, err = core.BPP(run)
				case "ASL":
					_, err = core.ASL(run)
				case "PT":
					_, err = core.PT(run)
				case "AHT":
					_, err = core.AHT(run)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations DESIGN.md calls out ---

// BenchmarkAblationPTGranularity sweeps PT's division-stop parameter (the
// paper's "32n" knob): few coarse tasks (more pruning, worse balance) vs
// many fine tasks (ASL-like granularity).
func BenchmarkAblationPTGranularity(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, ratio := range []int{1, 4, 32, 128} {
		b.Run(fmt.Sprintf("ratio%d", ratio), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				rep, err := core.PT(core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, TaskRatio: ratio, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.Makespan
			}
			b.ReportMetric(makespan, "sim-sec")
		})
	}
}

// BenchmarkAblationASLAffinity quantifies §3.3.2's sort sharing: ASL with
// affinity scheduling vs every-cuboid-from-scratch.
func BenchmarkAblationASLAffinity(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, na := range []bool{false, true} {
		name := "affinity"
		if na {
			name = "scratch"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				rep, err := core.ASL(core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, NoAffinity: na, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.Makespan
			}
			b.ReportMetric(makespan, "sim-sec")
		})
	}
}

// BenchmarkAblationExtendedAffinity measures the §4.9.2 ASL improvement:
// longest-shared-prefix scheduling plus sorted bulk-loading of scratch
// builds, against baseline ASL.
func BenchmarkAblationExtendedAffinity(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, ext := range []bool{false, true} {
		name := "baseline"
		if ext {
			name = "extended"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				rep, err := core.ASL(core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, Seed: 1, ExtendedAffinity: ext})
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.Makespan
			}
			b.ReportMetric(makespan, "sim-sec")
		})
	}
}

// BenchmarkAblationMixedHash measures the §4.9.2 AHT improvement: the
// multiplicative mixing hash against the paper's naive MOD hash, on the
// skewed workload where MOD suffers.
func BenchmarkAblationMixedHash(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, mixed := range []bool{false, true} {
		name := "naiveMOD"
		if mixed {
			name = "mixed"
		}
		b.Run(name, func(b *testing.B) {
			var collisions int64
			for i := 0; i < b.N; i++ {
				rep, err := core.AHT(core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, Seed: 1, MixedHash: mixed})
				if err != nil {
					b.Fatal(err)
				}
				collisions = rep.Totals().Collisions
			}
			b.ReportMetric(float64(collisions), "collisions")
		})
	}
}

// BenchmarkAblationAHTWidth sweeps AHT's fixed index width — the tradeoff
// §3.5.2 describes between memory occupation and collision rate.
func BenchmarkAblationAHTWidth(b *testing.B) {
	rel, dims := benchWorkload(b)
	for _, bits := range []int{8, 11, 14, 17} {
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				rep, err := core.AHTWithBits(core.Run{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 8, Seed: 1}, bits)
				if err != nil {
					b.Fatal(err)
				}
				makespan = rep.Makespan
			}
			b.ReportMetric(makespan, "sim-sec")
		})
	}
}

// BenchmarkAblationWriting isolates depth-first vs breadth-first writing on
// the same sequential computation (BUC vs BPP-BUC over the full tree).
func BenchmarkAblationWriting(b *testing.B) {
	rel, dims := benchWorkload(b)
	cond := agg.MinSupport(2)
	b.Run("depth-first", func(b *testing.B) {
		var seeks int64
		for i := 0; i < b.N; i++ {
			var ctr cost.Counters
			core.BUC(rel, dims, cond, disk.NewWriter(&ctr, nil), &ctr)
			seeks = ctr.Seeks
		}
		b.ReportMetric(float64(seeks), "seeks")
	})
	b.Run("breadth-first", func(b *testing.B) {
		var seeks int64
		for i := 0; i < b.N; i++ {
			rep, err := core.BPP(core.Run{Rel: rel, Dims: dims, Cond: cond, Workers: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			seeks = rep.Totals().Seeks
		}
		b.ReportMetric(float64(seeks), "seeks")
	})
}

// BenchmarkPOL measures one full online aggregation.
func BenchmarkPOL(b *testing.B) {
	rel := gen.Weather(10*benchTuples, 7)
	dims := gen.PickDimsByProduct(rel, 12, 16)
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(online.Query{
			Rel: rel, Dims: dims,
			Cond:    agg.MinSupport(2),
			Workers: 8, BufferTuples: 8000, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeCompute measures the public API end to end.
func BenchmarkFacadeCompute(b *testing.B) {
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(9, 13)
	for i := 0; i < b.N; i++ {
		res, err := Compute(ds, Query{Dims: dims, MinSupport: 2, Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumCells() == 0 {
			b.Fatal("empty cube")
		}
	}
}

// BenchmarkWALAppend measures the durable write path's logging tax: one
// 64-row batch record framed (length + CRC32C), encoded and appended to
// an in-memory segment — no fsync, which Commit pays once per barrier.
// The record encode/append path is benchguard-gated: it sits inside
// every durable Append/Delete, so alloc growth here is a write-path
// regression.
func BenchmarkWALAppend(b *testing.B) {
	const width, rows = 9, 64
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint32, width*rows)
	meas := make([]float64, rows)
	for i := range keys {
		keys[i] = uint32(rng.Intn(1000))
	}
	for i := range meas {
		meas[i] = float64(rng.Intn(100))
	}
	rec := &wal.Record{Type: wal.TypeAppend, Width: width, Keys: keys, Meas: meas}
	fresh := func() *wal.Log {
		lg, err := wal.Create(wal.NewMemFS(), "w", wal.Options{SegmentBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		return lg
	}
	lg := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bound the in-memory segment: swap in a fresh log periodically.
		if i > 0 && i%8192 == 0 {
			b.StopTimer()
			lg.Close()
			lg = fresh()
			b.StartTimer()
		}
		if err := lg.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	lg.Close()
}

// BenchmarkRecover measures crash-recovery latency end to end at the
// weather scale: replay the log (base + committed churn), rebuild the
// leaf and every committed version through the commit path, and rewarm
// the serving cache.
func BenchmarkRecover(b *testing.B) {
	mem := wal.NewMemFS()
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(9, 13)
	mat, err := materializeDurable(ds, dims, 8, mem, "wal", wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mat.Answer(dims[:2], 2); err != nil {
		b.Fatal(err)
	}
	rows, meas := benchMutationBatch(b, ds, dims, 64, 7)
	for i := 0; i < 4; i++ {
		if err := mat.Append(rows, meas); err != nil {
			b.Fatal(err)
		}
		if _, err := mat.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := mat.Delete(rows, meas); err != nil {
			b.Fatal(err)
		}
		if _, err := mat.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := mat.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm, err := recoverMaterialized(ds, dims, mem, "wal", wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rm.Version() != 9 {
			b.Fatalf("recovered v%d, want v9", rm.Version())
		}
		rm.Close()
	}
}

// BenchmarkSegmentScan measures the cold tier's streamed aggregation over
// a flushed segment table: a full-width cold scan (every column decoded),
// a narrow 1-column projection (columnar pushdown reads a fraction of the
// bytes), and the resident-cuboid hit path for scale. The backing FS is
// in-memory, so this isolates framing + bit-unpack + fold cost.
func BenchmarkSegmentScan(b *testing.B) {
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(6, 9)
	mat, err := Materialize(ds, dims, 8)
	if err != nil {
		b.Fatal(err)
	}
	fsys := wal.NewMemFS()
	if err := mat.FlushSegmentsFS(fsys, "cube"); err != nil {
		b.Fatal(err)
	}
	cold, err := OpenColdFS(fsys, "cube", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	scan := func(b *testing.B, groupBy []string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cold.ResetCache()
			cells, st, err := cold.AnswerStats(groupBy, 2)
			if err != nil {
				b.Fatal(err)
			}
			if !st.ColdScan || len(cells) == 0 {
				b.Fatalf("expected a cold scan with cells: %+v", st)
			}
		}
	}
	b.Run("FullWidth", func(b *testing.B) { scan(b, dims) })
	b.Run("Narrow", func(b *testing.B) { scan(b, dims[:1]) })
	b.Run("CacheHit", func(b *testing.B) {
		cold.ResetCache()
		if _, err := cold.Answer(dims[:2], 2); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := cold.AnswerStats(dims[:2], 2)
			if err != nil {
				b.Fatal(err)
			}
			if !st.CacheHit {
				b.Fatalf("expected a cache hit: %+v", st)
			}
		}
	})
}

// BenchmarkSpillBUC measures the out-of-core iceberg cube over a flushed
// segment table: InCore gives the streaming kernel an effectively
// unbounded budget (the whole table loads once), Spill squeezes it under
// a budget smaller than the table so heavy values recurse through
// scratch sub-tables. Peak resident bytes are asserted under the budget
// every iteration.
func BenchmarkSpillBUC(b *testing.B) {
	ds := SyntheticWeather(benchTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(4, 6)
	mat, err := Materialize(ds, dims, 8)
	if err != nil {
		b.Fatal(err)
	}
	fsys := wal.NewMemFS()
	if err := mat.FlushSegmentsFS(fsys, "cube"); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, budget int64) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, st, err := ComputeOutOfCoreFS(fsys, "cube", Query{MinSupport: 2}, budget)
			if err != nil {
				b.Fatal(err)
			}
			if res.CellsWritten == 0 {
				b.Fatal("empty cube")
			}
			if st.PeakBytes > budget {
				b.Fatalf("peak %d exceeded budget %d", st.PeakBytes, budget)
			}
		}
	}
	b.Run("InCore", func(b *testing.B) { run(b, 1<<30) })
	b.Run("Spill", func(b *testing.B) { run(b, 128<<10) })
}
