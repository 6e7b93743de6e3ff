package online

import (
	"net"
	"sync"
	"testing"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/mpi"
)

// buildTCPWorldForTest wires an n-rank loopback TCP world.
func buildTCPWorldForTest(n int) ([]mpi.Comm, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	comms := make([]mpi.Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = mpi.NewTCPWorld(r, addrs, 5*time.Second)
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return comms, nil
}

// runDistributed executes DistributedRun over an in-process world and
// returns rank 0's result.
func runDistributed(t *testing.T, n int, q Query) *Result {
	t.Helper()
	comms := mpi.NewLocalWorld(n)
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	var root *Result
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := DistributedRun(comms[r], q)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if r == 0 {
				root = res
			} else if res.Cells != nil {
				t.Errorf("rank %d returned gathered cells", r)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return root
}

// TestDistributedPOLMatchesNaive: the MPI deployment produces exactly the
// cuboid the oracle computes, across world sizes and buffer sizes.
func TestDistributedPOLMatchesNaive(t *testing.T) {
	rel := onlineRel(4000, 77)
	dims := []int{0, 1, 2}
	want := core.NaiveCube(rel, dims, agg.MinSupport(3))
	wantKeys, wantCuboid := want.CuboidColumns(1<<0 | 1<<1 | 1<<2)
	for _, n := range []int{1, 2, 4} {
		for _, buf := range []int{128, 1000, 100000} {
			res := runDistributed(t, n, Query{
				Rel: rel, Dims: dims,
				Cond:         agg.MinSupport(3),
				BufferTuples: buf,
				Seed:         5,
			})
			_, got := res.Cells.CuboidColumns(res.Mask)
			if len(got) != len(wantCuboid) {
				t.Fatalf("n=%d buf=%d: %d cells, want %d", n, buf, len(got), len(wantCuboid))
			}
			for i, st := range wantCuboid {
				k := wantKeys[i*len(dims) : (i+1)*len(dims)]
				gst, ok := res.Cells.Get(res.Mask, k)
				if !ok || gst.Count != st.Count || gst.Sum != st.Sum {
					t.Fatalf("n=%d buf=%d: cell %v got %+v want %+v", n, buf, k, gst, st)
				}
			}
		}
	}
}

// TestDistributedPOLOverTCP smoke-tests the same algorithm over real
// sockets.
func TestDistributedPOLOverTCP(t *testing.T) {
	rel := onlineRel(2000, 9)
	dims := []int{0, 1}
	_, want := core.NaiveCube(rel, dims, agg.MinSupport(2)).CuboidColumns(1<<0 | 1<<1)

	comms, err := buildTCPWorldForTest(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	var root *Result
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := DistributedRun(comms[r], Query{
				Rel: rel, Dims: dims, Cond: agg.MinSupport(2), BufferTuples: 300, Seed: 1,
			})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			if r == 0 {
				root = res
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	_, got := root.Cells.CuboidColumns(root.Mask)
	if len(got) != len(want) {
		t.Fatalf("TCP run: %d cells, want %d", len(got), len(want))
	}
}

// TestBoundaryWireRoundTrip: boundary encoding is lossless and validated.
func TestBoundaryWireRoundTrip(t *testing.T) {
	bounds := [][]uint32{{1, 2}, {3, 0}, {7, 9}}
	buf := encodeBoundaries(bounds, 2)
	got, err := decodeBoundaries(buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1][0] != 3 || got[2][1] != 9 {
		t.Fatalf("decoded %v", got)
	}
	if !boundariesSorted(got) {
		t.Fatal("sorted boundaries reported unsorted")
	}
	if _, err := decodeBoundaries(buf[:5], 2); err == nil {
		t.Fatal("ragged boundary payload decoded")
	}
}

// TestFoldRecordsValidation: malformed chunks are rejected.
func TestFoldRecordsValidation(t *testing.T) {
	if err := foldRecords(nil, []byte{1, 2, 3}, 1, 12); err == nil {
		t.Fatal("ragged chunk accepted")
	}
}
