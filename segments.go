package icebergcube

import (
	"context"
	"fmt"
	"path"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
	"icebergcube/internal/segment"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// FlushSegments persists the current committed snapshot's live rows as a
// dictionary-encoded columnar segment table in dir (which must not
// already hold one). The flush carries the full decode state — dimension
// names, code cardinalities and dictionaries, including values appended
// after materialization — so OpenSegments and OpenCold reproduce Answer's
// output byte for byte.
func (m *Materialized) FlushSegments(dir string) error {
	return m.FlushSegmentsFS(wal.DirFS{}, dir)
}

// FlushSegmentsFS is FlushSegments over an explicit filesystem (tests use
// wal.NewMemFS).
func (m *Materialized) FlushSegmentsFS(fsys wal.FS, dir string) error {
	keys, meas := m.cube.LiveRows()
	w := len(m.attrs)

	// Effective code space per position: the base dictionary plus the
	// extension layer. Synthetic data sets accept arbitrary decimal codes
	// on Append, so widen by anything actually observed.
	m.extMu.RLock()
	cards := make([]int, w)
	for p := range cards {
		cards[p] = m.ext[p].base + len(m.ext[p].values)
	}
	var dicts [][]string
	if m.dicts != nil {
		dicts = make([][]string, w)
		for p := range dicts {
			base := m.dicts[p].Values()[:m.ext[p].base]
			dicts[p] = append(append([]string(nil), base...), m.ext[p].values...)
		}
	}
	m.extMu.RUnlock()
	for i, code := range keys {
		if p := i % w; int(code) >= cards[p] {
			if dicts != nil {
				return fmt.Errorf("icebergcube: code %d beyond dictionary of %q", code, m.attrs[p])
			}
			cards[p] = int(code) + 1
		}
	}

	sw, err := segment.Create(fsys, dir, segment.Schema{Names: m.attrs, Cards: cards, Dicts: dicts}, segment.Options{})
	if err != nil {
		return err
	}
	row := make([]uint32, w)
	for i := range meas {
		copy(row, keys[i*w:(i+1)*w])
		if err := sw.Append(row, meas[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// OpenSegments loads a segment table back into memory as a Dataset —
// the warm path for data that fits. Dictionaries persisted by
// FlushSegments are restored, so decoded values round-trip exactly.
func OpenSegments(dir string) (*Dataset, error) {
	return OpenSegmentsFS(wal.DirFS{}, dir)
}

// OpenSegmentsFS is OpenSegments over an explicit filesystem.
func OpenSegmentsFS(fsys wal.FS, dir string) (*Dataset, error) {
	tab, err := segment.Open(fsys, dir)
	if err != nil {
		return nil, err
	}
	rel := relation.NewWithCapacity(tab.Names(), tab.Cards(), int(tab.Rows()))
	err = tab.Scan(segment.ScanOptions{Meas: true}, func(ch *segment.Chunk) error {
		rel.AppendColumns(ch.Cols, ch.Meas)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newDataset(rel, dictFromTable(tab)), nil
}

// dictFromTable rebuilds the per-dimension encoders from a table's
// persisted dictionaries (nil when the table was written without them —
// synthetic data, whose codes decode as themselves).
func dictFromTable(tab *segment.Table) *relation.Dictionary {
	persisted := tab.Dicts()
	if persisted == nil {
		return nil
	}
	dict := &relation.Dictionary{Encoders: make([]*relation.Encoder, len(persisted))}
	for d, values := range persisted {
		dict.Encoders[d] = relation.NewEncoderFromValues(values)
	}
	return dict
}

// dictOnlySchema names a table's dimensions and decodes their codes
// through its persisted dictionaries — for cells produced straight from
// segment scans. dims maps cube position to table column.
func dictOnlySchema(tab *segment.Table, dims []int, noun string) schema {
	ds := newDataset(relation.New(tab.Names(), tab.Cards()), dictFromTable(tab))
	attrs := make([]string, len(dims))
	for i, d := range dims {
		attrs[i] = tab.Names()[d]
	}
	return newSchema(attrs, noun, ds.decoder(dims))
}

// ColdCube answers group-by queries over a flushed segment table without
// loading the leaf into memory: resident cuboids live in a byte-budgeted
// cache, misses aggregate from the cheapest resident ancestor, and only
// when no ancestor covers the query is the cold store streamed — reading
// just the queried columns. It is the same serving core as Materialized
// over a streamed leaf, read-only at version 0. Safe for concurrent
// queries.
type ColdCube struct {
	schema // the table's dimensions
	src    *segment.Source
	srv    *serve.Server
}

// SegmentIOStats is the measured (not simulated) read-side cost of
// segment scans: real filesystem calls, bytes and wall seconds.
type SegmentIOStats struct {
	BlocksScanned int64
	BlocksSkipped int64
	ReadCalls     int64
	BytesRead     int64
	ReadSeconds   float64
	RowsScanned   int64
	RowsYielded   int64
}

func publicIOStats(s segment.IOStats) SegmentIOStats {
	return SegmentIOStats{
		BlocksScanned: s.BlocksScanned,
		BlocksSkipped: s.BlocksSkipped,
		ReadCalls:     s.ReadCalls,
		BytesRead:     s.BytesRead,
		ReadSeconds:   s.ReadSeconds,
		RowsScanned:   s.RowsScanned,
		RowsYielded:   s.RowsYielded,
	}
}

// OpenCold opens a flushed segment table for cold serving with a cuboid
// cache of budgetBytes (≤ 0 selects the serving default).
func OpenCold(dir string, budgetBytes int64) (*ColdCube, error) {
	return OpenColdFS(wal.DirFS{}, dir, budgetBytes)
}

// OpenColdFS is OpenCold over an explicit filesystem.
func OpenColdFS(fsys wal.FS, dir string, budgetBytes int64) (*ColdCube, error) {
	tab, err := segment.Open(fsys, dir)
	if err != nil {
		return nil, err
	}
	src := &segment.Source{Tab: tab}
	srv, err := serve.NewColdServer(src, tab.Cards(), budgetBytes)
	if err != nil {
		return nil, err
	}
	all := make([]int, len(tab.Names()))
	for i := range all {
		all[i] = i
	}
	return &ColdCube{schema: dictOnlySchema(tab, all, "dimension of this table"), src: src, srv: srv}, nil
}

// Attrs returns the table's dimension names.
func (c *ColdCube) Attrs() []string { return append([]string(nil), c.attrs...) }

// Rows returns the table's row count.
func (c *ColdCube) Rows() int64 { return c.src.Tab.Rows() }

// Answer computes one iceberg group-by from the cold tier — the same
// contract as Materialized.Answer, cells in ascending value-tuple order.
func (c *ColdCube) Answer(groupBy []string, minSupport int64) ([]Cell, error) {
	cells, _, err := c.AnswerStats(groupBy, minSupport)
	return cells, err
}

// AnswerStats is Answer plus serving observability.
func (c *ColdCube) AnswerStats(groupBy []string, minSupport int64) ([]Cell, ServeStats, error) {
	return c.answer(c.srv, 0, groupBy, minSupport)
}

// AnswerEach streams the qualifying cells of one group-by to yield — same
// contract as Materialized.AnswerEach. Cancelling ctx also aborts a cold
// scan between chunks, so an abandoned client stops burning disk reads
// mid-table.
func (c *ColdCube) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(Cell) error) (ServeStats, error) {
	return c.answerEach(ctx, c.srv, 0, groupBy, minSupport, yield)
}

// AnswerColumns answers one group-by without decoding it — same contract
// as Materialized.AnswerColumns, at version 0.
func (c *ColdCube) AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*Columns, error) {
	return c.columns(ctx, c.srv, 0, groupBy, minSupport)
}

// ResetCache drops every cached cuboid (the next miss scans cold again).
func (c *ColdCube) ResetCache() { c.srv.Reset() }

// Metrics returns the cumulative serving counters, including the measured
// segment I/O behind every cold scan.
func (c *ColdCube) Metrics() CacheMetrics {
	var out CacheMetrics
	out.add(c.srv.Stats())
	out.IO = publicIOStats(c.src.IOStats())
	return out
}

// OutOfCoreStats reports what one ComputeOutOfCore run did. All I/O
// numbers are measured from real segment reads, not simulated.
type OutOfCoreStats struct {
	// PeakBytes is the high-water mark of accounted resident memory —
	// bounded by the configured limit.
	PeakBytes int64
	// LoadedPartitions, SpilledValues, MaxSpillDepth, PrunedValues and
	// BytesSpilled describe the recursion: partitions small enough to
	// load, heavy values re-spilled to scratch (and how deep), and values
	// discarded at the histogram stage by the iceberg threshold.
	LoadedPartitions int64
	SpilledValues    int64
	MaxSpillDepth    int
	PrunedValues     int64
	BytesSpilled     int64
	// IO is the measured read-side cost across every scan.
	IO SegmentIOStats
}

// ComputeOutOfCore computes an iceberg cube directly over a flushed
// segment table under a resident-memory limit: partitions that fit load
// and run the in-memory kernel; heavy values spill to scratch sub-tables
// and recurse. Only the single-node write orders are available —
// Algorithm BPP selects breadth-first writing, RP (or empty) depth-first
// BUC. Cells are identical to Compute over the same rows.
func ComputeOutOfCore(dir string, q Query, memLimitBytes int64) (*Result, *OutOfCoreStats, error) {
	return ComputeOutOfCoreFS(wal.DirFS{}, dir, q, memLimitBytes)
}

// ComputeOutOfCoreFS is ComputeOutOfCore over an explicit filesystem.
func ComputeOutOfCoreFS(fsys wal.FS, dir string, q Query, memLimitBytes int64) (*Result, *OutOfCoreStats, error) {
	tab, err := segment.Open(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	var breadth bool
	switch q.Algorithm {
	case BPP:
		breadth = true
	case "", RP:
	default:
		return nil, nil, fmt.Errorf("icebergcube: out-of-core supports RP and BPP, not %q", q.Algorithm)
	}
	names := tab.Names()
	var dims []int
	if q.Dims == nil {
		dims = make([]int, len(names))
		for i := range dims {
			dims[i] = i
		}
	} else {
		colOf := make(map[string]int, len(names))
		for i, n := range names {
			colOf[n] = i
		}
		dims = make([]int, len(q.Dims))
		for i, n := range q.Dims {
			col, ok := colOf[n]
			if !ok {
				return nil, nil, fmt.Errorf("icebergcube: unknown dimension %q", n)
			}
			dims[i] = col
		}
	}
	var cond agg.Condition
	switch {
	case q.MinSum > 0:
		cond = agg.MinSum(q.MinSum)
	case q.MinSupport > 0:
		cond = agg.MinSupport(q.MinSupport)
	default:
		cond = agg.MinSupport(1)
	}

	set := results.NewSet()
	st, err := core.SpillCube(core.SpillConfig{
		Table:      tab,
		Dims:       dims,
		Cond:       cond,
		Out:        set,
		MemBudget:  memLimitBytes,
		Breadth:    breadth,
		FS:         fsys,
		ScratchDir: path.Join(dir, "scratch"),
	})
	if err != nil {
		return nil, nil, err
	}
	set.Seal()

	algo := q.Algorithm
	if algo == "" {
		algo = RP
	}
	res := &Result{
		schema:       dictOnlySchema(tab, dims, resultNoun),
		set:          set,
		Algorithm:    algo,
		CellsWritten: int64(set.NumCells()),
	}
	out := &OutOfCoreStats{
		PeakBytes:        st.PeakBytes,
		LoadedPartitions: st.LoadedPartitions,
		SpilledValues:    st.SpilledValues,
		MaxSpillDepth:    st.MaxSpillDepth,
		PrunedValues:     st.PrunedValues,
		BytesSpilled:     st.BytesSpilled,
		IO:               publicIOStats(st.IO),
	}
	return res, out, nil
}
