package icebergcube

import (
	"fmt"
	"strings"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/cost"
	"icebergcube/internal/results"
	"icebergcube/internal/serve"
)

// Algorithm selects one of the paper's parallel iceberg-cube algorithms.
type Algorithm string

// The five algorithms of Chapters 3–4.
const (
	// RP — Replicated Parallel BUC: simplest, depth-first writing, weak
	// load balance (§3.1).
	RP Algorithm = "RP"
	// BPP — Breadth-first writing, Partitioned, Parallel BUC: the
	// memory-lean choice (§3.2).
	BPP Algorithm = "BPP"
	// ASL — Affinity SkipList: cuboid-granularity tasks in skip lists,
	// strongest load balance, supports online refinement (§3.3).
	ASL Algorithm = "ASL"
	// PT — Partitioned Tree: binary-divided BUC subtrees with affinity
	// scheduling; the paper's recommended default (§3.4).
	PT Algorithm = "PT"
	// AHT — Affinity Hash Table: ASL's scheduling over a collapsible
	// bit-packed hash table; shines on dense cubes (§3.5.2).
	AHT Algorithm = "AHT"
)

// Algorithms lists the five selectable algorithms.
func Algorithms() []Algorithm { return []Algorithm{RP, BPP, ASL, PT, AHT} }

// Query describes one iceberg-cube computation.
type Query struct {
	// Dims names the cube dimensions (nil = all data-set dimensions).
	Dims []string
	// MinSupport is the iceberg threshold: HAVING COUNT(*) >= MinSupport
	// (default 1 = full cube).
	MinSupport int64
	// MinSum, when positive, replaces the count condition with
	// HAVING SUM(measure) >= MinSum.
	MinSum float64
	// Algorithm selects the parallel algorithm (default PT, the paper's
	// recommendation).
	Algorithm Algorithm
	// Workers is the cluster size (default 8, the paper's baseline).
	Workers int
	// Parallel executes workers on real goroutines instead of the
	// deterministic virtual-time runner. Results are identical; virtual
	// timing stays deterministic only without it.
	Parallel bool
	// Seed fixes skip-list coin flips (default 1).
	Seed int64
}

// Cell is one qualifying output cell.
type Cell struct {
	// Attrs and Values give the GROUP BY attributes and this cell's
	// values for them, in the cube's dimension order. The "all" cell has
	// both empty.
	Attrs  []string
	Values []string
	// Count, Sum, Min, Max and Avg are the cell's aggregates over the
	// measure.
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	Avg   float64
}

// Result is a computed iceberg cube.
type Result struct {
	schema // the cube dimensions, in cube order
	set    *results.Set

	// Algorithm that produced the cube.
	Algorithm Algorithm
	// Makespan is the simulated completion time in seconds (the time the
	// slowest simulated processor finished).
	Makespan float64
	// WorkerLoads is each simulated processor's busy time in seconds.
	WorkerLoads []float64
	// CellsWritten counts all qualifying cells across all cuboids.
	CellsWritten int64
	// BytesWritten is the simulated output volume.
	BytesWritten int64
}

// Compute runs the query on the data set.
func Compute(ds *Dataset, q Query) (*Result, error) {
	dims, err := ds.resolveDims(q.Dims)
	if err != nil {
		return nil, err
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
	if q.Algorithm == "" {
		q.Algorithm = PT
	}
	if q.Workers <= 0 {
		q.Workers = 8
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	set := results.NewSet()
	run := core.Run{
		Rel:      ds.rel,
		Dims:     dims,
		Cond:     cond,
		Workers:  q.Workers,
		Cluster:  cost.BaselineCluster(q.Workers),
		Sink:     set,
		Parallel: q.Parallel,
		Seed:     q.Seed,
	}
	var rep *core.Report
	switch q.Algorithm {
	case RP:
		rep, err = core.RP(run)
	case BPP:
		rep, err = core.BPP(run)
	case ASL:
		rep, err = core.ASL(run)
	case PT:
		rep, err = core.PT(run)
	case AHT:
		rep, err = core.AHT(run)
	default:
		return nil, fmt.Errorf("icebergcube: unknown algorithm %q", q.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	set.Seal() // a Result keeps no append slack and no cross-rank duplicates
	attrs := make([]string, len(dims))
	for i, d := range dims {
		attrs[i] = ds.rel.Name(d)
	}
	tot := rep.Totals()
	return &Result{
		schema:       newSchema(attrs, resultNoun, ds.decoder(dims)),
		set:          set,
		Algorithm:    q.Algorithm,
		Makespan:     rep.Makespan,
		WorkerLoads:  rep.Loads(),
		CellsWritten: tot.CellsWritten,
		BytesWritten: tot.BytesWritten,
	}, nil
}

// NumCells returns the total number of qualifying cells.
func (r *Result) NumCells() int { return r.set.NumCells() }

// NumCuboids returns the number of non-empty group-bys (out of 2^d).
func (r *Result) NumCuboids() int { return r.set.NumCuboids() }

// resultNoun is what group-by errors call a dimension of a Result.
const resultNoun = "cube dimension of this result"

// Cuboid returns the qualifying cells of one group-by, sorted by value
// tuple — the canonical cell order shared with Materialized.Answer. An
// empty groupBy returns the "all" cell.
func (r *Result) Cuboid(groupBy ...string) ([]Cell, error) {
	order, mask, err := r.resolveGroupBy(groupBy)
	if err != nil {
		return nil, err
	}
	keys, states := r.set.CuboidColumns(mask)
	// Every stored cell already met the query's condition.
	cols := &Columns{
		GroupBy:    r.maskAttrs(mask),
		MinSupport: 1,
		schema:     &r.schema,
		order:      order,
		cub:        &serve.Cuboid{Mask: mask, Width: len(order), Keys: keys, States: states},
	}
	cells := make([]Cell, 0, len(states))
	err = cols.eachCell(func(c Cell) error {
		cells = append(cells, c)
		return nil
	})
	return cells, err
}

// Get returns the cell of a group-by with specific values (decoded
// strings), or false if it did not qualify.
func (r *Result) Get(groupBy []string, values []string) (Cell, bool, error) {
	if len(groupBy) != len(values) {
		return Cell{}, false, fmt.Errorf("icebergcube: %d attributes but %d values", len(groupBy), len(values))
	}
	cells, err := r.Cuboid(groupBy...)
	if err != nil {
		return Cell{}, false, err
	}
	for _, c := range cells {
		match := true
		for i := range values {
			if c.Values[i] != values[i] {
				match = false
				break
			}
		}
		if match {
			return c, true, nil
		}
	}
	return Cell{}, false, nil
}

// String renders a cell compactly, e.g. "(Model=Chevy, Year=1990): count=3 sum=154".
func (c Cell) String() string {
	if len(c.Attrs) == 0 {
		return fmt.Sprintf("(ALL): count=%d sum=%g", c.Count, c.Sum)
	}
	parts := make([]string, len(c.Attrs))
	for i := range c.Attrs {
		parts[i] = c.Attrs[i] + "=" + c.Values[i]
	}
	return fmt.Sprintf("(%s): count=%d sum=%g", strings.Join(parts, ", "), c.Count, c.Sum)
}
