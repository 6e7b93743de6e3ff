// Package exp contains one harness per table and figure of the paper's
// evaluation (Chapters 3–5): each builds the workload, sweeps the figure's
// parameter, runs the algorithms, and returns the series the paper plots.
// cmd/cubebench renders them; bench_test.go runs them under testing.B; the
// experiment tests assert the paper's qualitative findings (who wins,
// where the crossovers are). Beside the paper's figures there is one
// more entry, "cores", the host wall-clock speedup of intra-worker
// pools. The serving stack built beyond the paper (cache, commits, WAL,
// cold tier) is not measured here: the end-to-end benchmark
// (BENCHMARK.json) times it through the socket.
package exp

import (
	"fmt"
	"strings"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/cost"
	"icebergcube/internal/gen"
	"icebergcube/internal/relation"
)

// Config scales the experiments. The zero value runs the paper's full
// baseline (176,631 tuples, 9 dimensions with cardinality product ≈10^13,
// minsup 2, 8 PIII-500 workers); tests and quick benches shrink Tuples.
type Config struct {
	// Tuples is the data-set size (default 176,631 — the paper's CUBE
	// baseline).
	Tuples int
	// Workers is the processor count (default 8).
	Workers int
	// MinSup is the iceberg threshold (default 2).
	MinSup int64
	// Dims is the number of cube dimensions (default 9).
	Dims int
	// Seed fixes the synthetic data (default 2001).
	Seed int64
	// Cores is the intra-worker execution-pool width (default 1: serial
	// task bodies). Virtual-time results are identical for every value;
	// only real wall clock changes — the "cores" experiment measures it.
	Cores int
}

func (c Config) withDefaults() Config {
	if c.Tuples == 0 {
		c.Tuples = 176631
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.MinSup == 0 {
		c.MinSup = 2
	}
	if c.Dims == 0 {
		c.Dims = 9
	}
	if c.Seed == 0 {
		c.Seed = 2001
	}
	return c
}

// Point is one measurement; X is the swept parameter.
type Point struct {
	X float64
	Y float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is one reproduced figure or table.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Format renders the table as aligned text (cubebench's output and the
// basis of EXPERIMENTS.md).
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%14s", s.Name)
	}
	b.WriteByte('\n')
	if len(t.Series) > 0 {
		for i := range t.Series[0].Points {
			fmt.Fprintf(&b, "%-12.4g", t.Series[0].Points[i].X)
			for _, s := range t.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, "%14.4g", s.Points[i].Y)
				} else {
					fmt.Fprintf(&b, "%14s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s (%s)\n", n, t.YLabel)
	}
	return b.String()
}

// workload builds the weather-like relation and baseline dimension subset.
func workload(c Config) (*relation.Relation, []int) {
	rel := gen.Weather(c.Tuples, c.Seed)
	target := 13.0 * float64(c.Dims) / 9.0
	dims := gen.PickDimsByProduct(rel, c.Dims, target)
	return rel, dims
}

// Algorithms in the order the paper's figures list them.
var CubeAlgorithms = []string{"RP", "BPP", "ASL", "PT", "AHT"}

// runCube dispatches one algorithm.
func runCube(name string, run core.Run) (*core.Report, error) {
	switch name {
	case "RP":
		return core.RP(run)
	case "BPP":
		return core.BPP(run)
	case "ASL":
		return core.ASL(run)
	case "PT":
		return core.PT(run)
	case "AHT":
		return core.AHT(run)
	}
	return nil, fmt.Errorf("exp: unknown algorithm %q", name)
}

// baselineRun builds the baseline Run for a workload.
func baselineRun(c Config, rel *relation.Relation, dims []int) core.Run {
	return core.Run{
		Rel:     rel,
		Dims:    dims,
		Cond:    agg.MinSupport(c.MinSup),
		Workers: c.Workers,
		Cluster: cost.BaselineCluster(c.Workers),
		Cores:   c.Cores,
		Seed:    c.Seed,
	}
}
