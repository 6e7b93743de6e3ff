package ingest

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/serve"
)

// refCuboid aggregates the reference row multiset onto one group-by.
func refCuboid(width int, keys []uint32, meas []float64, q lattice.Mask) map[string]agg.State {
	dims := q.Dims()
	out := make(map[string]agg.State)
	sub := make([]uint32, len(dims))
	for i := range meas {
		row := keys[i*width : (i+1)*width]
		for j, d := range dims {
			sub[j] = row[d]
		}
		k := keyString(sub)
		st, ok := out[k]
		if !ok {
			st = agg.NewState()
		}
		st.Add(meas[i])
		out[k] = st
	}
	return out
}

// TestCommitRacesBackgroundFills: a committing writer races the adaptive
// policy's background materializations (and concurrent readers) under the
// race detector; after the dust settles, every resident cuboid of the
// final version must equal a scratch recompute from the final row
// multiset — i.e. a background-admitted cuboid is folded by Commit
// exactly like a foreground one, and a fill admitted against a retired
// version can never leak into the successor.
func TestCommitRacesBackgroundFills(t *testing.T) {
	const width = 3
	cards := []int{5, 6, 4}
	rng := rand.New(rand.NewSource(1))

	var keys []uint32
	var meas []float64
	addRows := func(n int) ([]uint32, []float64) {
		k := make([]uint32, 0, n*width)
		m := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			for d := 0; d < width; d++ {
				k = append(k, uint32(rng.Intn(cards[d])))
			}
			m = append(m, float64(rng.Intn(50)))
		}
		keys = append(keys, k...)
		meas = append(meas, m...)
		return k, m
	}
	addRows(300)
	c := buildCube(width, keys, meas, cards, 1<<20)
	bg := serve.NewBackground()
	defer bg.Close()
	c.SetServePolicy(serve.PolicyOptions{Policy: serve.PolicyAdaptive, Seed: 13, ReplanEvery: 4}, bg)

	masks := lattice.All(width)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: drives demand, replans and background fills
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := c.Current().Srv.Query(masks[r.Intn(len(masks))]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for commit := 0; commit < 8; commit++ {
		k, m := addRows(40)
		if err := c.Append(k, m); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Deterministic tail: drive demand on the current version until its
	// cache holds cuboids (background fills included), drain the
	// executor, then run one more commit so the final version's resident
	// set is provably the fold of foreground- and background-admitted
	// cuboids.
	for i := 0; i < 64; i++ {
		if _, _, err := c.Current().Srv.Query(masks[i%len(masks)]); err != nil {
			t.Fatal(err)
		}
	}
	bg.Wait()
	k, m := addRows(40)
	if err := c.Append(k, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	bg.Wait()

	// Every resident cuboid of the final version — foreground-admitted,
	// background-filled, or commit-folded — must equal the scratch
	// recompute from the final rows.
	final := c.Current()
	checkLeaf(t, final, width, keys, meas)
	resident := final.Srv.Resident()
	if len(resident) == 0 {
		t.Fatal("no resident cuboids to check")
	}
	for _, cub := range resident {
		want := refCuboid(width, keys, meas, cub.Mask)
		if cub.Rows() != len(want) {
			t.Fatalf("mask %b: %d cells, want %d", cub.Mask, cub.Rows(), len(want))
		}
		for i := 0; i < cub.Rows(); i++ {
			w, ok := want[keyString(cub.Row(i))]
			if !ok {
				t.Fatalf("mask %b: unexpected cell %v", cub.Mask, cub.Row(i))
			}
			s := cub.States[i]
			if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
				t.Fatalf("mask %b cell %v: %+v want %+v", cub.Mask, cub.Row(i), s, w)
			}
		}
	}
}
