package online

import (
	"errors"
	"testing"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/mpi"
)

// TestRunWithRecoveryRetriesAfterWorldFault: attempt 0's world loses a rank
// to fault injection mid-query; the typed fault tears the attempt down
// within the step timeout, a fresh world is spawned, and the retried query
// produces exactly the oracle's cuboid with Attempts recording the retry.
func TestRunWithRecoveryRetriesAfterWorldFault(t *testing.T) {
	rel := onlineRel(3000, 21)
	dims := []int{0, 1, 2}
	wantKeys, want := core.NaiveCube(rel, dims, agg.MinSupport(2)).CuboidColumns(1<<0 | 1<<1 | 1<<2)

	spawns := 0
	spawn := func(attempt int) ([]mpi.Comm, error) {
		spawns++
		comms := mpi.NewLocalWorld(3)
		if attempt == 0 {
			// Rank 2 dies after its first two sends of the first exchange.
			return mpi.ChaosWorld(comms, mpi.FaultPolicy{
				Seed:           11,
				KillAfterSends: map[int]int{2: 2},
			}), nil
		}
		return comms, nil
	}
	res, err := RunWithRecovery(spawn, Query{
		Rel: rel, Dims: dims,
		Cond:         agg.MinSupport(2),
		BufferTuples: 500,
		Seed:         3,
		StepTimeout:  300 * time.Millisecond,
	}, 3)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (one faulted world, one clean)", res.Attempts)
	}
	if spawns != 2 {
		t.Fatalf("spawn called %d times, want 2", spawns)
	}
	_, got := res.Cells.CuboidColumns(res.Mask)
	if len(got) != len(want) {
		t.Fatalf("recovered run: %d cells, want %d", len(got), len(want))
	}
	for i, st := range want {
		k := wantKeys[i*len(dims) : (i+1)*len(dims)]
		gst, ok := res.Cells.Get(res.Mask, k)
		if !ok || gst.Count != st.Count || gst.Sum != st.Sum {
			t.Fatalf("cell %v got %+v want %+v", k, gst, st)
		}
	}
}

// TestRunWithRecoveryExhaustsAttempts: when every world faults, the typed
// fault surfaces after the attempt budget instead of retrying forever.
func TestRunWithRecoveryExhaustsAttempts(t *testing.T) {
	rel := onlineRel(1000, 5)
	spawns := 0
	spawn := func(attempt int) ([]mpi.Comm, error) {
		spawns++
		return mpi.ChaosWorld(mpi.NewLocalWorld(2), mpi.FaultPolicy{
			Seed:           7,
			KillAfterSends: map[int]int{1: 1},
		}), nil
	}
	_, err := RunWithRecovery(spawn, Query{
		Rel: rel, Dims: []int{0, 1},
		Cond:         agg.MinSupport(2),
		BufferTuples: 200,
		StepTimeout:  200 * time.Millisecond,
	}, 2)
	if err == nil {
		t.Fatal("every attempt faulted, yet RunWithRecovery succeeded")
	}
	if spawns != 2 {
		t.Fatalf("spawn called %d times, want the full budget of 2", spawns)
	}
	if !errors.Is(err, mpi.ErrKilled) && !errors.Is(err, mpi.ErrTimeout) && !errors.Is(err, mpi.ErrPeerDown) {
		t.Fatalf("exhaustion error %v is not one of the typed faults", err)
	}
}

// TestRunWithRecoveryQueryErrorFailsFast: a query error that would recur on
// any world (nil relation) is not retried.
func TestRunWithRecoveryQueryErrorFailsFast(t *testing.T) {
	spawns := 0
	spawn := func(attempt int) ([]mpi.Comm, error) {
		spawns++
		return mpi.NewLocalWorld(2), nil
	}
	_, err := RunWithRecovery(spawn, Query{Dims: []int{0}}, 5)
	if err == nil {
		t.Fatal("nil relation accepted")
	}
	if spawns != 1 {
		t.Fatalf("a non-recoverable error was retried (%d spawns)", spawns)
	}
}
