package exp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"icebergcube/internal/lattice"
	"icebergcube/internal/serve"
)

// adaptiveQueries is the Zipf workload length per (policy, budget) cell.
const adaptiveQueries = 600

// adaptiveBudgetDivisors express the swept cache budgets as fractions of
// the leaf's footprint: tight (leaf/16), medium (leaf/4), roomy (leaf).
var adaptiveBudgetDivisors = []int64{16, 4, 1}

// Adaptive — the workload-adaptive admission experiment: the same Zipf
// query stream is served twice at each byte budget, once under LRU and
// once under the benefit-per-byte adaptive policy (synchronous re-plans,
// fixed seed, so the run is deterministic), and the two are compared on
// hit rate, on the cells and rows each had to scan to answer the stream
// (both exact for a given seed), and on per-query service time (host
// wall clock, like "serve"). Every 16th query is additionally checked
// cell-for-cell across the two servers — the in-run equivalence oracle:
// residency must never change an answer.
func Adaptive(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)

	// Probe server only to size the budgets off the leaf.
	probe, _, _, err := serveLeaf(c, rel, dims)
	if err != nil {
		return nil, err
	}
	leafBytes := probe.Leaf().SizeBytes()
	leafRows := probe.Leaf().Rows()

	// Query shapes by popularity rank: coarse first, Zipf-drawn — the
	// stream is generated once per budget and replayed on both policies.
	masks := lattice.All(len(dims))
	sort.Slice(masks, func(a, b int) bool {
		if masks[a].Count() != masks[b].Count() {
			return masks[a].Count() < masks[b].Count()
		}
		return masks[a] < masks[b]
	})

	t := &Table{
		ID:     "adaptive",
		Title:  "Adaptive vs LRU cuboid admission under Zipf traffic",
		XLabel: "budget KB",
		YLabel: "hit %, cells+rows scanned, µs per query (host wall clock)",
	}
	names := []string{"lru-hit%", "adaptive-hit%", "lru-scan", "adaptive-scan", "lru-us", "adaptive-us"}
	for _, n := range names {
		t.Series = append(t.Series, Series{Name: n})
	}

	type runStats struct {
		hitRate    float64
		meanUs     float64
		p50, p99   float64
		evictions  int64
		replans    int64
		scannedAgg int64
	}
	percentile := func(us []float64, p float64) float64 {
		sort.Float64s(us)
		i := int(p * float64(len(us)-1))
		return us[i]
	}

	for _, div := range adaptiveBudgetDivisors {
		budget := leafBytes / div
		rng := rand.New(rand.NewSource(c.Seed))
		zipf := rand.NewZipf(rng, 1.4, 4, uint64(len(masks)-1))
		stream := make([]lattice.Mask, adaptiveQueries)
		for i := range stream {
			stream[i] = masks[zipf.Uint64()]
		}

		build := func(adaptive bool) (*serve.Server, error) {
			srv, _, _, err := serveLeaf(c, rel, dims)
			if err != nil {
				return nil, err
			}
			srv.SetBudget(budget)
			if adaptive {
				srv.SetPolicy(serve.PolicyOptions{
					Policy:      serve.PolicyAdaptive,
					Seed:        c.Seed,
					ReplanEvery: 32,
				}, nil)
			}
			return srv, nil
		}
		lru, err := build(false)
		if err != nil {
			return nil, err
		}
		ada, err := build(true)
		if err != nil {
			return nil, err
		}

		measure := func(srv *serve.Server) (runStats, []*serve.Cuboid, error) {
			sampled := make([]*serve.Cuboid, 0, adaptiveQueries/16+1)
			us := make([]float64, len(stream))
			var scanned int64
			for i, q := range stream {
				start := time.Now()
				cub, qs, err := srv.Query(q)
				if err != nil {
					return runStats{}, nil, err
				}
				us[i] = time.Since(start).Seconds() * 1e6
				scanned += int64(qs.CellsScanned) + qs.RowsScanned
				if i%16 == 0 {
					sampled = append(sampled, cub)
				}
			}
			m := srv.Stats()
			if m.ResidentBytes > m.BudgetBytes {
				return runStats{}, nil, fmt.Errorf("exp: %s cache exceeded its budget: %d > %d", m.Policy, m.ResidentBytes, m.BudgetBytes)
			}
			var mean float64
			for _, u := range us {
				mean += u
			}
			mean /= float64(len(us))
			return runStats{
				hitRate:    100 * float64(m.CacheHits+m.Coalesced) / float64(m.Queries),
				meanUs:     mean,
				p50:        percentile(us, 0.50),
				p99:        percentile(us, 0.99),
				evictions:  m.Evictions,
				replans:    m.Replans,
				scannedAgg: scanned,
			}, sampled, nil
		}

		lruStats, lruSample, err := measure(lru)
		if err != nil {
			return nil, err
		}
		adaStats, adaSample, err := measure(ada)
		if err != nil {
			return nil, err
		}

		// In-run equivalence oracle on the sampled answers: identical
		// cells and states, whatever each policy had resident.
		for i := range lruSample {
			a, b := lruSample[i], adaSample[i]
			if a.Mask != b.Mask || a.Rows() != b.Rows() ||
				!reflect.DeepEqual(a.Keys, b.Keys) || !reflect.DeepEqual(a.States, b.States) {
				return nil, fmt.Errorf("exp: budget %d: adaptive and LRU diverged on sampled query %d (mask %b)", budget, i*16, a.Mask)
			}
		}

		kb := float64(budget >> 10)
		t.Series[0].Points = append(t.Series[0].Points, Point{X: kb, Y: lruStats.hitRate})
		t.Series[1].Points = append(t.Series[1].Points, Point{X: kb, Y: adaStats.hitRate})
		t.Series[2].Points = append(t.Series[2].Points, Point{X: kb, Y: float64(lruStats.scannedAgg)})
		t.Series[3].Points = append(t.Series[3].Points, Point{X: kb, Y: float64(adaStats.scannedAgg)})
		t.Series[4].Points = append(t.Series[4].Points, Point{X: kb, Y: lruStats.meanUs})
		t.Series[5].Points = append(t.Series[5].Points, Point{X: kb, Y: adaStats.meanUs})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"budget %dKB (leaf/%d): lru hit %.1f%% p50 %.1fµs p99 %.1fµs evict %d scan %d | adaptive hit %.1f%% p50 %.1fµs p99 %.1fµs evict %d replans %d scan %d",
			budget>>10, div,
			lruStats.hitRate, lruStats.p50, lruStats.p99, lruStats.evictions, lruStats.scannedAgg,
			adaStats.hitRate, adaStats.p50, adaStats.p99, adaStats.evictions, adaStats.replans, adaStats.scannedAgg))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"leaf: %d cells, %d KB; %d Zipf queries per cell; every 16th answer cross-checked", leafRows, leafBytes>>10, adaptiveQueries))
	return t, nil
}
