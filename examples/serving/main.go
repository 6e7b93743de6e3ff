// Serving: the lattice-aware serving layer on top of the §5.1
// materialized leaf — queries rewritten to the cheapest resident ancestor
// cuboid, computed cuboids retained in a byte-budgeted LRU cache, and
// per-query stats showing which regime (leaf scan, ancestor aggregation,
// cache hit) each answer took.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	icebergcube "icebergcube"
)

// run holds the whole example so the smoke test can execute it against a
// buffer; main just points it at stdout.
func run(w io.Writer) error {
	ds := icebergcube.SyntheticWeather(30000, 2001)
	dims := ds.PickDimsByCardinalityProduct(9, 13)

	// Materialize the finest cuboid once (minsup 1); everything after this
	// is answered without touching the raw data.
	mat, err := icebergcube.Materialize(ds, dims, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "materialized leaf: %d cells over %d dimensions\n\n", mat.NumCells(), len(dims))

	show := func(groupBy []string, minsup int64) error {
		cells, stats, err := mat.AnswerStats(groupBy, minsup)
		if err != nil {
			return err
		}
		regime := "leaf scan"
		switch {
		case stats.CacheHit:
			regime = "cache hit"
		case len(stats.ServedFrom) < len(dims):
			regime = "ancestor aggregation"
		}
		fmt.Fprintf(w, "group by %v (minsup %d): %d cells — %s, served from %v, %d cells scanned\n",
			groupBy, minsup, len(cells), regime, stats.ServedFrom, stats.CellsScanned)
		return nil
	}

	// Cold 3-dim query: nothing resident but the leaf, so the serving
	// layer aggregates the full leaf once — and caches the result.
	if err := show(dims[:3], 2); err != nil {
		return err
	}
	// A coarser 2-dim query is a subset of the cached 3-dim cuboid: the
	// rewrite aggregates those few cells instead of rescanning the leaf.
	if err := show(dims[:2], 2); err != nil {
		return err
	}
	// The same shape again (any threshold) is a pure cache hit.
	if err := show(dims[:2], 5); err != nil {
		return err
	}
	// And coarser still: 1-dim served from the resident 2-dim cuboid.
	if err := show(dims[:1], 2); err != nil {
		return err
	}

	m := mat.CacheMetrics()
	fmt.Fprintf(w, "\nserving metrics: %d queries, %d cache hits, %d leaf scans, %d ancestor aggregations\n",
		m.Queries, m.CacheHits, m.LeafAggregations, m.AncestorAggregations)
	fmt.Fprintf(w, "cache: %d cuboids resident, %d KB of %d MB budget\n",
		m.ResidentCuboids, m.ResidentBytes/1024, m.BudgetBytes>>20)

	// Shrink the budget to a few KB: the cache evicts least-recently-used
	// cuboids to fit, but answers stay correct (the leaf is pinned).
	mat.SetCacheBudget(4 << 10)
	for _, gb := range [][]string{dims[:3], dims[1:4], dims[2:5], dims[:2]} {
		if _, err := mat.Answer(gb, 2); err != nil {
			return err
		}
	}
	m = mat.CacheMetrics()
	fmt.Fprintf(w, "\nafter shrinking the budget to 4 KB and querying 4 shapes:\n")
	fmt.Fprintf(w, "cache: %d cuboids resident, %d bytes of %d byte budget, %d evictions\n",
		m.ResidentCuboids, m.ResidentBytes, m.BudgetBytes, m.Evictions)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
