package online

import (
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/cost"
	"icebergcube/internal/gen"
	"icebergcube/internal/relation"
)

func onlineRel(tuples int, seed int64) *relation.Relation {
	return gen.Generate(gen.Spec{
		Cards:  []int{40, 12, 7, 5, 3},
		Skew:   []float64{2, 1, 1.5, 1, 1},
		Tuples: tuples,
		Seed:   seed,
	})
}

// TestPOLMatchesNaive: the final POL answer must equal the corresponding
// single cuboid of the naive cube, across worker counts and buffer sizes.
func TestPOLMatchesNaive(t *testing.T) {
	rel := onlineRel(3000, 21)
	dims := []int{0, 1, 2}
	want := core.NaiveCube(rel, dims, agg.MinSupport(2))
	wantKeys, wantCuboid := want.CuboidColumns(1<<0 | 1<<1 | 1<<2)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, buf := range []int{64, 500, 10000} {
			res, err := Run(Query{
				Rel: rel, Dims: dims,
				Cond:         agg.MinSupport(2),
				Workers:      workers,
				BufferTuples: buf,
				Seed:         5,
			})
			if err != nil {
				t.Fatalf("POL(workers=%d buf=%d): %v", workers, buf, err)
			}
			_, got := res.Cells.CuboidColumns(res.Mask)
			if len(got) != len(wantCuboid) {
				t.Fatalf("POL(workers=%d buf=%d): %d cells, want %d", workers, buf, len(got), len(wantCuboid))
			}
			for i, st := range wantCuboid {
				k := wantKeys[i*len(dims) : (i+1)*len(dims)]
				gst, ok := res.Cells.Get(res.Mask, k)
				if !ok {
					t.Fatalf("POL(workers=%d buf=%d): missing cell %v", workers, buf, k)
				}
				if gst.Count != st.Count || gst.Sum != st.Sum {
					t.Fatalf("POL(workers=%d buf=%d): cell state %+v want %+v", workers, buf, gst, st)
				}
			}
		}
	}
}

// TestPOLProgressRefines: snapshots must cover increasing fractions up to
// 1.0, with the final snapshot's qualifying count consistent with the exact
// answer.
func TestPOLProgressRefines(t *testing.T) {
	rel := onlineRel(5000, 3)
	dims := []int{0, 1}
	var snaps []Snapshot
	res, err := Run(Query{
		Rel: rel, Dims: dims,
		Cond:         agg.MinSupport(4),
		Workers:      4,
		BufferTuples: 250,
		Seed:         1,
		Progress:     func(s Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("expected several refinement steps, got %d", len(snaps))
	}
	prev := 0.0
	for _, s := range snaps {
		if s.Fraction <= prev {
			t.Fatalf("fractions must increase: %v", snaps)
		}
		prev = s.Fraction
	}
	if snaps[len(snaps)-1].Fraction != 1.0 {
		t.Fatalf("final snapshot fraction %v, want 1.0", snaps[len(snaps)-1].Fraction)
	}
	final := snaps[len(snaps)-1]
	if final.QualifyingCells != res.Cells.NumCells() {
		t.Fatalf("final snapshot reports %d qualifying cells, exact answer has %d",
			final.QualifyingCells, res.Cells.NumCells())
	}
	if res.Steps != len(snaps) {
		t.Fatalf("Result.Steps=%d but %d snapshots", res.Steps, len(snaps))
	}
}

// TestPOLTaskMatrix reproduces Table 5.1: with 4 processors, one step
// produces a 4×4 ownership×location chunk matrix whose column i partitions
// the block located on processor i.
func TestPOLTaskMatrix(t *testing.T) {
	rel := onlineRel(4000, 9)
	dims := []int{0, 1}
	n := 4
	parts := rel.BlockPartition(n)
	boundaries := sampleBoundaries(rel, dims, n, 512)
	if len(boundaries) != n-1 {
		t.Fatalf("expected %d boundaries, got %d", n-1, len(boundaries))
	}
	key := make([]uint32, len(dims))
	chunks := make([][][]int32, n)
	for j := range chunks {
		chunks[j] = make([][]int32, n)
	}
	blockSize := 500
	for i, part := range parts {
		for _, row := range part[:blockSize] {
			for k, d := range dims {
				key[k] = rel.Value(d, int(row))
			}
			owner := ownerOf(key, boundaries)
			chunks[owner][i] = append(chunks[owner][i], row)
		}
	}
	for i := 0; i < n; i++ {
		colTotal := 0
		for j := 0; j < n; j++ {
			colTotal += len(chunks[j][i])
		}
		if colTotal != blockSize {
			t.Fatalf("column %d holds %d rows, want the full block %d", i, colTotal, blockSize)
		}
	}
	// Ownership must respect boundaries: every row in row j of the matrix
	// maps back to owner j.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			for _, row := range chunks[j][i] {
				for k, d := range dims {
					key[k] = rel.Value(d, int(row))
				}
				if got := ownerOf(key, boundaries); got != j {
					t.Fatalf("row assigned to owner %d but ownerOf says %d", j, got)
				}
			}
		}
	}
}

// TestPOLBufferSizeFewerSteps: larger buffers mean fewer steps and (with
// synchronization overhead per step) no worse simulated time — Fig 5.4's
// trend.
func TestPOLBufferSizeFewerSteps(t *testing.T) {
	rel := onlineRel(8000, 13)
	dims := []int{0, 1, 2}
	var prevSteps int
	for i, buf := range []int{100, 400, 2000} {
		res, err := Run(Query{Rel: rel, Dims: dims, Cond: agg.MinSupport(2), Workers: 4, BufferTuples: buf, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Steps >= prevSteps {
			t.Fatalf("buffer %d: steps %d did not drop from %d", buf, res.Steps, prevSteps)
		}
		prevSteps = res.Steps
	}
}

// TestPOLNetworkSensitivity: on a faster interconnect the same query must
// finish no slower — the Myrinet effect of Fig 5.3.
func TestPOLNetworkSensitivity(t *testing.T) {
	rel := onlineRel(6000, 17)
	dims := []int{0, 1, 2, 3}
	run := func(m cost.Machine) float64 {
		res, err := Run(Query{
			Rel: rel, Dims: dims,
			Cond:         agg.MinSupport(2),
			Workers:      4,
			Cluster:      cost.Homogeneous(m.Name, m, 4),
			BufferTuples: 500,
			Seed:         3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	ethernet := run(cost.PII266())
	myrinet := run(cost.PII266Myrinet())
	if myrinet > ethernet {
		t.Fatalf("Myrinet run (%.3fs) slower than Ethernet (%.3fs)", myrinet, ethernet)
	}
}

// TestPOLHeterogeneousCluster mixes fast and slow nodes (the paper's
// 16-node cluster is heterogeneous): the answer must stay exact, and
// stealing lets fast workers drain slow workers' rows, so the makespan
// must beat the all-slow cluster's.
func TestPOLHeterogeneousCluster(t *testing.T) {
	rel := onlineRel(6000, 29)
	dims := []int{0, 1, 2}
	_, want := core.NaiveCube(rel, dims, agg.MinSupport(2)).CuboidColumns(1<<0 | 1<<1 | 1<<2)

	mixed := cost.Cluster{Name: "mixed", Machines: []cost.Machine{
		cost.PIII500(), cost.PII266(), cost.PIII500(), cost.PII266(),
	}}
	res, err := Run(Query{
		Rel: rel, Dims: dims,
		Cond:    agg.MinSupport(2),
		Workers: 4, Cluster: mixed, BufferTuples: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, got := res.Cells.CuboidColumns(res.Mask)
	if len(got) != len(want) {
		t.Fatalf("heterogeneous run: %d cells, want %d", len(got), len(want))
	}

	slow, err := Run(Query{
		Rel: rel, Dims: dims,
		Cond:    agg.MinSupport(2),
		Workers: 4, Cluster: cost.Homogeneous("slow", cost.PII266(), 4),
		BufferTuples: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= slow.Makespan {
		t.Fatalf("mixed cluster (%.3fs) should beat the all-slow cluster (%.3fs)", res.Makespan, slow.Makespan)
	}
}

// TestPOLValidation exercises the error paths.
func TestPOLValidation(t *testing.T) {
	rel := onlineRel(10, 1)
	for _, q := range []Query{
		{},
		{Rel: rel},
		{Rel: rel, Dims: []int{99}},
	} {
		if _, err := Run(q); err == nil {
			t.Errorf("expected error for %+v", q)
		}
	}
}
