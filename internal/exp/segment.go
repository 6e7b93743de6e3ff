package exp

import (
	"fmt"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
	"icebergcube/internal/segment"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// flushWorkload persists the workload's selected dimensions (plus the
// measure) as a columnar segment table on an in-memory FS, so the
// experiment measures decode + framing cost deterministically without a
// host disk in the loop. Returns the opened table.
func flushWorkload(rel *relation.Relation, dims []int) (*segment.Table, wal.FS, error) {
	fsys := wal.NewMemFS()
	names := make([]string, len(dims))
	cards := make([]int, len(dims))
	cols := make([][]uint32, len(dims))
	for i, d := range dims {
		names[i] = rel.Name(d)
		cards[i] = rel.Card(d)
		cols[i] = rel.Column(d)
	}
	w, err := segment.Create(fsys, "tab", segment.Schema{Names: names, Cards: cards}, segment.Options{})
	if err != nil {
		return nil, nil, err
	}
	if err := w.AppendCols(cols, rel.Measures()); err != nil {
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	tab, err := segment.Open(fsys, "tab")
	return tab, fsys, err
}

// sameCuboid verifies two served cuboids carry identical cells (both
// sides emit sorted row-major keys).
func sameCuboid(a, b *serve.Cuboid) error {
	if a.Rows() != b.Rows() || a.Width != b.Width {
		return fmt.Errorf("%d×%d cells vs %d×%d", a.Rows(), a.Width, b.Rows(), b.Width)
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return fmt.Errorf("key %d: %d vs %d", i, a.Keys[i], b.Keys[i])
		}
	}
	for i := range a.States {
		if a.States[i].Count != b.States[i].Count || a.States[i].Sum != b.States[i].Sum {
			return fmt.Errorf("state %d: %+v vs %+v", i, a.States[i], b.States[i])
		}
	}
	return nil
}

// Segment — the columnar cold-tier experiment: per-query wall time of the
// cold server's three regimes (cold scan streaming the segment store,
// aggregation from a cached ancestor, pure cache hit) against the
// in-memory warm server's leaf aggregation, swept over group-by arity.
// Every cold answer is checked cell-for-cell against the warm server's,
// and the notes record the measured segment I/O (real bytes and blocks,
// not the simulator) plus an out-of-core BUC run under a quarter-size
// memory budget. Like "serve", this measures host wall clock.
func Segment(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	tab, fsys, err := flushWorkload(rel, dims)
	if err != nil {
		return nil, err
	}
	src := &segment.Source{Tab: tab}
	cards := make([]int, len(dims))
	for i, d := range dims {
		cards[i] = rel.Card(d)
	}
	cold, err := serve.NewColdServer(src, cards, int64(c.CacheMB)<<20)
	if err != nil {
		return nil, err
	}
	// The warm reference: the whole leaf pinned in memory.
	warm, _, _, err := serveLeaf(c, rel, dims)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "segment",
		Title:  "Columnar cold tier: segment scans vs warm cache (µs/query)",
		XLabel: "group-by arity",
		YLabel: "µs per query (host wall clock)",
	}
	for _, n := range []string{"warm-leaf-aggregate", "cold-scan", "ancestor-hit", "cache-hit"} {
		t.Series = append(t.Series, Series{Name: n})
	}

	timeIt := func(reps int, fn func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e6 / float64(reps), nil
	}

	for _, k := range serveArities {
		if k > len(dims) {
			break
		}
		var qmask, amask lattice.Mask
		for i := 0; i < k; i++ {
			qmask |= 1 << uint(i)
		}
		amask = qmask | 1<<uint(k%len(dims))
		if amask == qmask {
			amask |= 1 << uint(len(dims)-1)
		}

		// Warm reference: aggregate the query from the in-memory leaf.
		us, err := timeIt(3, func() error {
			warm.Reset()
			_, _, err := warm.Query(qmask)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[0].Points = append(t.Series[0].Points, Point{X: float64(k), Y: us})

		// Cold scan: empty cache, no resident ancestor — stream the
		// segment store, reading only the queried columns.
		us, err = timeIt(3, func() error {
			cold.Reset()
			_, st, err := cold.Query(qmask)
			if err == nil && !st.ColdScan {
				return fmt.Errorf("exp: arity %d expected a cold scan, got %+v", k, st)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[1].Points = append(t.Series[1].Points, Point{X: float64(k), Y: us})

		// Ancestor hit: a (k+1)-dim cuboid is resident; the query
		// aggregates from it without touching the store.
		cold.Reset()
		if _, _, err := cold.Query(amask); err != nil {
			return nil, err
		}
		ioBefore := src.IOStats().BytesRead
		us, err = timeIt(10, func() error {
			cold.Invalidate(qmask)
			_, st, err := cold.Query(qmask)
			if err == nil && (st.ColdScan || st.CellsScanned == 0) {
				return fmt.Errorf("exp: arity %d expected an ancestor aggregation, got %+v", k, st)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if got := src.IOStats().BytesRead; got != ioBefore {
			return nil, fmt.Errorf("exp: arity %d ancestor aggregation read %d bytes from the store", k, got-ioBefore)
		}
		t.Series[2].Points = append(t.Series[2].Points, Point{X: float64(k), Y: us})

		// Cache hit: the query's own cuboid is resident.
		if _, _, err := cold.Query(qmask); err != nil {
			return nil, err
		}
		us, err = timeIt(100, func() error {
			_, st, err := cold.Query(qmask)
			if err == nil && !st.CacheHit {
				return fmt.Errorf("exp: arity %d expected a cache hit", k)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Series[3].Points = append(t.Series[3].Points, Point{X: float64(k), Y: us})

		// Live correctness check: the cold tier's answer must be
		// cell-for-cell the warm server's.
		cc, _, err := cold.Query(qmask)
		if err != nil {
			return nil, err
		}
		wc, _, err := warm.Query(qmask)
		if err != nil {
			return nil, err
		}
		if err := sameCuboid(cc, wc); err != nil {
			return nil, fmt.Errorf("exp: arity %d cold/warm mismatch: %v", k, err)
		}
	}

	io := src.IOStats()
	m := cold.Stats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("segment table: %d rows × %d dims, %d KB on disk, block %d rows",
			tab.Rows(), len(dims), tab.SizeBytes()>>10, tab.BlockRows()),
		fmt.Sprintf("measured I/O: %d reads, %d KB, %d blocks scanned, %d skipped, %.2fms in ReadAt",
			io.ReadCalls, io.BytesRead>>10, io.BlocksScanned, io.BlocksSkipped, io.ReadSeconds*1e3),
		fmt.Sprintf("cold server: %d queries, %d hits, %d cold scans, %d ancestor aggregations, %d KB resident",
			m.Queries, m.CacheHits, m.ColdScans, m.AncestorAggregations, m.ResidentBytes>>10),
	)

	// Out-of-core BUC under a quarter-size budget: the same segment table
	// recursed with spilling, its cells checked against the in-memory
	// kernel via the sink's cell count.
	budget := tab.SizeBytes() / 4
	if min := int64(tab.BlockRows()) * int64(4*len(dims)+8) * 2; budget < min {
		budget = min
	}
	set := results.NewSet()
	st, err := core.SpillCube(core.SpillConfig{
		Table: tab, Dims: identityDims(len(dims)), Cond: agg.MinSupport(c.MinSup),
		Out: set, MemBudget: budget, FS: fsys, ScratchDir: "scratch",
	})
	if err != nil {
		return nil, err
	}
	inMem := results.NewSet()
	run := baselineRun(c, rel, dims)
	run.Sink = inMem
	if _, err := core.BPP(run); err != nil {
		return nil, err
	}
	if d := set.Diff(inMem); d != "" {
		return nil, fmt.Errorf("exp: out-of-core cube differs from in-memory: %s", d)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("out-of-core BUC (minsup %d, budget %d KB): peak %d KB, %d partitions loaded, %d values spilled (depth %d), %d values pruned, spill I/O %d KB",
			c.MinSup, budget>>10, st.PeakBytes>>10, st.LoadedPartitions, st.SpilledValues, st.MaxSpillDepth, st.PrunedValues, st.IO.BytesRead>>10),
	)
	if st.PeakBytes > budget {
		return nil, fmt.Errorf("exp: spill peak %d exceeded budget %d", st.PeakBytes, budget)
	}
	return t, nil
}

// identityDims is 0..n-1: the flushed table's columns are already the
// workload's selected dimensions in cube order.
func identityDims(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}
