package ingest

import (
	"errors"
	"testing"
)

// TestTypedWriteErrors: every write-path rejection carries its typed
// sentinel, matchable with errors.Is, and leaves the batch untouched.
func TestTypedWriteErrors(t *testing.T) {
	c := buildCube(2, []uint32{0, 0, 0, 1}, []float64{2, 4}, []int{3, 3}, 0)

	if err := c.Append([]uint32{1}, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short keys: %v, want ErrShape", err)
	}
	if err := c.Append([]uint32{1, 1, 2, 2}, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("extra keys: %v, want ErrShape", err)
	}
	if err := c.Delete([]uint32{1, 1}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("delete shape: %v, want ErrShape", err)
	}
	if err := c.Append([]uint32{1, MaxCode}, []float64{1}); !errors.Is(err, ErrCodeRange) {
		t.Fatalf("code at MaxCode: %v, want ErrCodeRange", err)
	}
	if err := c.Append([]uint32{1, MaxCode - 1}, []float64{1}); err != nil {
		t.Fatalf("code at MaxCode-1 must be accepted: %v", err)
	}
	if err := c.Delete([]uint32{2, 2}, []float64{99}); !errors.Is(err, ErrNotLive) {
		t.Fatalf("delete of absent row: %v, want ErrNotLive", err)
	}
	// A row appended in-batch can be deleted once, not twice.
	if err := c.Append([]uint32{9, 9}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]uint32{9, 9}, []float64{5}); err != nil {
		t.Fatalf("delete of in-batch append: %v", err)
	}
	if err := c.Delete([]uint32{9, 9}, []float64{5}); !errors.Is(err, ErrNotLive) {
		t.Fatalf("double delete: %v, want ErrNotLive", err)
	}
	// The failures above buffered nothing beyond the three accepted ops.
	if got := c.Pending(); got != 3 {
		t.Fatalf("pending %d, want 3 (rejected batches must not buffer)", got)
	}
}

// TestAppendAllocations is the satellite's regression guard: the old row
// and pending indexes built a string key per row (one allocation each,
// plus map churn), so Append cost ≥ 1 alloc/row. The hash-bucket arenas
// bring the steady state down to amortized slice/bucket growth — bounded
// by distinct cells, not rows.
func TestAppendAllocations(t *testing.T) {
	const (
		width    = 4
		rows     = 256
		distinct = 32
	)
	keys := make([]uint32, 0, rows*width)
	meas := make([]float64, 0, rows)
	for i := 0; i < rows; i++ {
		cell := uint32(i % distinct)
		keys = append(keys, cell, cell>>1, cell&3, 7)
		meas = append(meas, float64(cell%5))
	}
	base := []uint32{0, 0, 0, 0}
	c := buildCube(width, base, []float64{1}, []int{64, 64, 64, 64}, 0)

	// Warm the arenas and bucket maps to steady-state capacity.
	if err := c.Append(keys, meas); err != nil {
		t.Fatal(err)
	}
	reset := func() {
		c.pending = c.pending[:0]
		c.pendKeys = c.pendKeys[:0]
		c.pendingNet.reset()
	}
	reset()

	allocs := testing.AllocsPerRun(20, func() {
		if err := c.Append(keys, meas); err != nil {
			t.Fatal(err)
		}
		reset()
	})
	perRow := allocs / rows
	// The old string-keyed index sat at ≥ 1 alloc/row; the arena index
	// must stay an order of magnitude under that (the residue is netMap
	// bucket slices, one per distinct cell per batch).
	if perRow > 0.25 {
		t.Fatalf("Append allocates %.2f/row (%.0f per %d-row batch) — string-keyed index regression", perRow, allocs, rows)
	}
}

// TestDeleteValidationAllocations: Delete's availability probe searches
// the head leaf and scans one cell's measures; probing must not allocate.
func TestDeleteValidationAllocations(t *testing.T) {
	const width = 3
	baseKeys := []uint32{1, 2, 3, 4, 5, 6}
	baseMeas := []float64{10, 20}
	c := buildCube(width, baseKeys, baseMeas, []int{8, 8, 8}, 0)

	probe := []uint32{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() {
		if n := c.countLive(probe, 10); n != 1 {
			t.Fatalf("countLive = %d, want 1", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("countLive allocates %.1f per probe, want 0", allocs)
	}
}
