package icebergcube

// The adaptive-vs-LRU serving oracle: the workload-adaptive admission
// policy must serve byte-identical answers to the LRU policy (and to the
// legacy full-leaf rescan) across fuzzed group-bys, minsup values and
// cache budgets — including across commits, where background-admitted and
// commit-folded cuboids enter the resident set. Residency decides how
// fast a query is served, never what it answers.

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"icebergcube/internal/lattice"
	"icebergcube/internal/serve"
)

// twinMats materializes the same dataset twice: one cube kept on LRU, one
// switched to the adaptive policy in synchronous (deterministic) mode.
func twinMats(t *testing.T, ds *Dataset, seed int64) (lru, ada *Materialized) {
	t.Helper()
	var err error
	lru, err = Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ada, err = Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ada.SetCachePolicy(CachePolicyConfig{Policy: CacheAdaptive, Seed: seed, ReplanEvery: 16}); err != nil {
		t.Fatal(err)
	}
	return lru, ada
}

func TestAdaptiveMatchesLRU(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D", "E"}, []int{7, 5, 4, 3, 6}, []float64{2, 1, 1.5, 1, 3}, 2000, 41)
	lru, ada := twinMats(t, ds, 7)

	for _, budget := range []int64{2 << 10, 64 << 20} {
		lru.SetCacheBudget(budget)
		ada.SetCacheBudget(budget)
		lru.ResetCache()
		ada.ResetCache()
		for _, minsup := range []int64{1, 3} {
			for qi, gb := range randomGroupBys(ds.DimNames(), 60, 77*budget+minsup) {
				a, _, err := lru.AnswerStats(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := ada.AnswerStats(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				if ga, gbb := renderCells(a), renderCells(b); ga != gbb {
					t.Fatalf("budget=%d minsup=%d q%d %v: adaptive != LRU:\n%s",
						budget, minsup, qi, gb, firstDiffLine(ga, gbb))
				}
				legacy, err := lru.answerLeafRescan(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				if gl, gbb := renderCells(legacy), renderCells(b); gl != gbb {
					t.Fatalf("budget=%d minsup=%d q%d %v: adaptive != leaf rescan:\n%s",
						budget, minsup, qi, gb, firstDiffLine(gl, gbb))
				}
			}
		}
		m := ada.CacheMetrics()
		if m.Policy != "adaptive" {
			t.Fatalf("policy not applied: %+v", m)
		}
		if m.ResidentBytes > m.BudgetBytes {
			t.Fatalf("adaptive budget violated: %+v", m)
		}
		if m.Replans == 0 {
			t.Fatalf("adaptive never re-planned: %+v", m)
		}
	}
}

// TestAdaptiveMatchesLRUAcrossCommits: the equivalence holds while both
// cubes ingest identical append/delete batches — commit-folded residents,
// handed-off plans and post-commit re-plans included — and on time-travel
// reads of every retained version.
func TestAdaptiveMatchesLRUAcrossCommits(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{5, 4, 6, 3}, []float64{2, 1, 1.5, 1}, 1200, 19)
	lru, ada := twinMats(t, ds, 3)
	lru.SetCacheBudget(4 << 10)
	ada.SetCacheBudget(4 << 10)

	rng := rand.New(rand.NewSource(23))
	dims := ds.DimNames()
	cards := []int{5, 4, 6, 3}
	randRows := func(n int) ([][]string, []float64) {
		rows := make([][]string, n)
		meas := make([]float64, n)
		for i := range rows {
			row := make([]string, len(dims))
			for d := range row {
				row[d] = strconv.Itoa(rng.Intn(cards[d]))
			}
			rows[i] = row
			meas[i] = float64(rng.Intn(40))
		}
		return rows, meas
	}

	for round := 0; round < 4; round++ {
		// Drive demand so the adaptive planner has something to chew on.
		for qi, gb := range randomGroupBys(dims, 30, int64(100*round)) {
			for _, minsup := range []int64{1, 2} {
				a, err := lru.Answer(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ada.Answer(gb, minsup)
				if err != nil {
					t.Fatal(err)
				}
				if ga, gbb := renderCells(a), renderCells(b); ga != gbb {
					t.Fatalf("round %d q%d %v minsup=%d: adaptive != LRU:\n%s",
						round, qi, gb, minsup, firstDiffLine(ga, gbb))
				}
			}
		}
		rows, meas := randRows(30)
		if err := lru.Append(rows, meas); err != nil {
			t.Fatal(err)
		}
		if err := ada.Append(rows, meas); err != nil {
			t.Fatal(err)
		}
		// Delete a few of the rows just appended (identical on both).
		if round%2 == 1 {
			if err := lru.Delete(rows[:5], meas[:5]); err != nil {
				t.Fatal(err)
			}
			if err := ada.Delete(rows[:5], meas[:5]); err != nil {
				t.Fatal(err)
			}
		}
		sa, err := lru.Commit()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := ada.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if sa.Version != sb.Version || sa.Rows != sb.Rows || sa.Cells != sb.Cells {
			t.Fatalf("round %d: snapshots diverge: %+v vs %+v", round, sa, sb)
		}
	}

	// Time travel: every retained version answers identically under both
	// policies.
	for _, snap := range lru.Snapshots() {
		for qi, gb := range randomGroupBys(dims, 10, int64(snap.Version)) {
			a, err := lru.AnswerAt(snap.Version, gb, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ada.AnswerAt(snap.Version, gb, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ga, gbb := renderCells(a), renderCells(b); ga != gbb {
				t.Fatalf("v%d q%d %v: adaptive != LRU:\n%s", snap.Version, qi, gb, firstDiffLine(ga, gbb))
			}
		}
	}
	if m := ada.CacheMetrics(); m.Replans == 0 {
		t.Fatalf("no re-plans across %d commits: %+v", 4, m)
	}
}

// TestAdaptiveBackgroundMatchesLRU: same equivalence with a real
// background executor attached (fills race foreground queries); answers
// must still match query-for-query.
func TestAdaptiveBackgroundMatchesLRU(t *testing.T) {
	ds := Synthetic([]string{"A", "B", "C", "D"}, []int{6, 5, 4, 7}, []float64{2, 1, 1.5, 1}, 1500, 31)
	lru, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ada, err := Materialize(ds, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ada.SetCachePolicy(CachePolicyConfig{Policy: CacheAdaptive, Seed: 5, ReplanEvery: 8, BackgroundCores: 2}); err != nil {
		t.Fatal(err)
	}
	defer ada.Close()
	lru.SetCacheBudget(8 << 10)
	ada.SetCacheBudget(8 << 10)

	for qi, gb := range randomGroupBys(ds.DimNames(), 150, 97) {
		a, err := lru.Answer(gb, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ada.Answer(gb, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ga, gbb := renderCells(a), renderCells(b); ga != gbb {
			t.Fatalf("q%d %v: adaptive(bg) != LRU:\n%s", qi, gb, firstDiffLine(ga, gbb))
		}
	}
	ada.WaitBackground()
	if m := ada.CacheMetrics(); m.ResidentBytes > m.BudgetBytes {
		t.Fatalf("budget violated with background fills: %+v", m)
	}
}

// TestAdaptiveBeatsLRUUnderZipf: on one fixed-seed Zipf stream of
// group-bys, coarse shapes most popular, the adaptive policy in
// synchronous mode keeps a better resident set than LRU — a higher hit
// rate at every budget (leaf/16, leaf/4, leaf), and at the tightest
// budget fewer cells and rows scanned to answer the stream. Both figures
// are exact for the seed. Every 16th answer is also compared across the
// twins: residency never changes an answer.
func TestAdaptiveBeatsLRUUnderZipf(t *testing.T) {
	const (
		seed    = 2001
		queries = 600
	)
	ds := SyntheticWeather(6000, seed)
	dims := ds.PickDimsByCardinalityProduct(9, 13)

	// Group-bys by popularity rank: fewer attributes first, then by mask.
	masks := lattice.All(len(dims))
	sort.SliceStable(masks, func(a, b int) bool { return masks[a].Count() < masks[b].Count() })

	type outcome struct {
		hitPct  float64
		scanned int64
		sampled []*serve.Cuboid
	}
	for _, div := range []int64{16, 4, 1} {
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.4, 4, uint64(len(masks)-1))
		stream := make([]lattice.Mask, queries)
		for i := range stream {
			stream[i] = masks[zipf.Uint64()]
		}

		var out [2]outcome
		for side, policy := range []CachePolicy{CacheLRU, CacheAdaptive} {
			m, err := Materialize(ds, dims, 4)
			if err != nil {
				t.Fatal(err)
			}
			srv := m.cube.Current().Srv
			m.SetCacheBudget(srv.Leaf().SizeBytes() / div)
			if err := m.SetCachePolicy(CachePolicyConfig{Policy: policy, Seed: seed, ReplanEvery: 32}); err != nil {
				t.Fatal(err)
			}
			for i, q := range stream {
				cub, st, err := srv.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				out[side].scanned += int64(st.CellsScanned) + st.RowsScanned
				if i%16 == 0 {
					out[side].sampled = append(out[side].sampled, cub)
				}
			}
			cm := m.CacheMetrics()
			if cm.ResidentBytes > cm.BudgetBytes {
				t.Fatalf("leaf/%d %s: budget violated: %+v", div, policy, cm)
			}
			out[side].hitPct = 100 * float64(cm.CacheHits+cm.Coalesced) / float64(cm.Queries)
		}
		lru, ada := out[0], out[1]
		for i, a := range lru.sampled {
			b := ada.sampled[i]
			if a.Mask != b.Mask || !reflect.DeepEqual(a.Keys, b.Keys) || !reflect.DeepEqual(a.States, b.States) {
				t.Fatalf("leaf/%d query %d (mask %b): adaptive and LRU answers differ", div, 16*i, a.Mask)
			}
		}
		t.Logf("leaf/%d: hit %% lru %.1f adaptive %.1f; cells+rows scanned lru %d adaptive %d",
			div, lru.hitPct, ada.hitPct, lru.scanned, ada.scanned)
		if ada.hitPct <= lru.hitPct {
			t.Errorf("leaf/%d: adaptive hit rate %.1f%% not above LRU's %.1f%%", div, ada.hitPct, lru.hitPct)
		}
		if div == 16 && ada.scanned >= lru.scanned {
			t.Errorf("leaf/16: adaptive scanned %d cells+rows, not below LRU's %d", ada.scanned, lru.scanned)
		}
	}
}
