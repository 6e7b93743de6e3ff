package icebergcube

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"icebergcube/internal/wal"
)

// Metrics readers run concurrently with query and commit traffic in any
// real deployment (a scraper hitting /v1/metrics while the cube serves).
// These tests hammer the public metrics surfaces from dedicated reader
// goroutines while queries and commits run, under -race, and assert the
// cumulative counters only ever move forward — a torn or double-counted
// read would show up as a counter going backwards.

func raceFixture(t *testing.T) *Materialized {
	t.Helper()
	var rows [][]string
	var meas []float64
	for i := 0; i < 400; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%5), fmt.Sprintf("c%d", i%3),
		})
		meas = append(meas, float64(i))
	}
	ds, err := FromRows([]string{"A", "B", "C"}, rows, meas)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(ds, []string{"A", "B", "C"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// monotone tracks the last observation of a few counters and fails if
// any of them decreases.
type monotone struct {
	t    *testing.T
	name string
	last map[string]int64
}

func (mo *monotone) observe(vals map[string]int64) {
	if mo.last == nil {
		mo.last = map[string]int64{}
	}
	for k, v := range vals {
		if v < mo.last[k] {
			mo.t.Errorf("%s: counter %s went backwards: %d -> %d", mo.name, k, mo.last[k], v)
			return
		}
		mo.last[k] = v
	}
}

// TestCacheMetricsConcurrentReaders: CacheMetrics and CuboidStats read
// while queries hit the cache and a writer appends and commits new
// snapshots. Traffic counters must be monotone across the commit
// handoffs (a commit swaps serving state but must not reset
// observability).
func TestCacheMetricsConcurrentReaders(t *testing.T) {
	m := raceFixture(t)
	groupBys := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"A", "C"}, {"A", "B", "C"}, nil}

	var stop atomic.Bool
	var workers, readers sync.WaitGroup

	// Query workers.
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				gb := groupBys[rng.Intn(len(groupBys))]
				if _, err := m.Answer(gb, 1+int64(rng.Intn(3))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Writer: append + commit in a loop.
	workers.Add(1)
	go func() {
		defer workers.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 30 && !stop.Load(); i++ {
			row := []string{
				fmt.Sprintf("a%d", rng.Intn(7)), fmt.Sprintf("b%d", rng.Intn(5)), fmt.Sprintf("c%d", rng.Intn(3)),
			}
			if err := m.Append([][]string{row}, []float64{float64(i)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Metrics readers: hammer every public observability surface.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			mo := &monotone{t: t, name: fmt.Sprintf("reader-%d", r)}
			for i := 0; i < 3000; i++ {
				cm := m.CacheMetrics()
				mo.observe(map[string]int64{
					"queries":   cm.Queries,
					"hits":      cm.CacheHits,
					"coalesced": cm.Coalesced,
					"canceled":  cm.Canceled,
					"computes":  cm.LeafAggregations + cm.AncestorAggregations,
					"evictions": cm.Evictions,
				})
				if cm.ResidentBytes > cm.BudgetBytes {
					t.Errorf("reader-%d: resident %d over budget %d", r, cm.ResidentBytes, cm.BudgetBytes)
					return
				}
				for _, cs := range m.CuboidStats() {
					if cs.Hits < 0 || cs.Misses < 0 || cs.Bytes < 0 {
						t.Errorf("reader-%d: negative cuboid stat %+v", r, cs)
						return
					}
				}
			}
		}(r)
	}

	readers.Wait() // readers finish their fixed iteration budget
	stop.Store(true)
	workers.Wait()

	cm := m.CacheMetrics()
	if cm.Queries == 0 || cm.LeafAggregations+cm.AncestorAggregations == 0 {
		t.Fatalf("no traffic recorded under load: %+v", cm)
	}
}

// TestColdMetricsConcurrentReaders: ColdCube.Metrics read while cold
// queries scan the segment table; counters monotone, I/O stats sane.
func TestColdMetricsConcurrentReaders(t *testing.T) {
	m := raceFixture(t)
	fsys := wal.NewMemFS()
	if err := m.FlushSegmentsFS(fsys, "cube"); err != nil {
		t.Fatal(err)
	}
	// A small budget keeps eviction pressure on, so cold scans keep
	// happening instead of everything going resident.
	cold, err := OpenColdFS(fsys, "cube", 4096)
	if err != nil {
		t.Fatal(err)
	}
	groupBys := [][]string{{"A"}, {"B"}, {"C"}, {"A", "B"}, {"B", "C"}, {"A", "B", "C"}}

	var stop atomic.Bool
	var workers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for !stop.Load() {
				gb := groupBys[rng.Intn(len(groupBys))]
				if _, err := cold.Answer(gb, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			mo := &monotone{t: t, name: fmt.Sprintf("cold-reader-%d", r)}
			for i := 0; i < 3000; i++ {
				cm := cold.Metrics()
				mo.observe(map[string]int64{
					"queries":   cm.Queries,
					"hits":      cm.CacheHits,
					"coalesced": cm.Coalesced,
					"canceled":  cm.Canceled,
					"coldscans": cm.ColdScans,
					"rows":      cm.RowsScanned,
					"io-reads":  cm.IO.ReadCalls,
					"io-bytes":  cm.IO.BytesRead,
					// The counters the cold tier inherits from the shared
					// serving core.
					"leaf-aggs": cm.LeafAggregations,
					"anc-aggs":  cm.AncestorAggregations,
					"evictions": cm.Evictions,
					"bg-fills":  cm.BackgroundFills,
					"replans":   cm.Replans,
				})
				if cm.ColdScans < cm.LeafAggregations {
					t.Errorf("cold-reader-%d: %d leaf aggregations but only %d cold scans", r, cm.LeafAggregations, cm.ColdScans)
					return
				}
				if cm.ResidentBytes > cm.BudgetBytes {
					t.Errorf("cold-reader-%d: resident %d over budget %d", r, cm.ResidentBytes, cm.BudgetBytes)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	workers.Wait()

	cm := cold.Metrics()
	if cm.Queries == 0 || cm.ColdScans == 0 {
		t.Fatalf("no cold traffic recorded under load: %+v", cm)
	}
}
