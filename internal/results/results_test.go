package results

import (
	"strings"
	"sync"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
)

func st(vals ...float64) agg.State {
	s := agg.NewState()
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// TestMergeOnCollision: duplicate writes merge their aggregate states —
// how BPP's partial cuboids union.
func TestMergeOnCollision(t *testing.T) {
	s := NewSet()
	s.WriteCell(lattice.MaskOf(0), []uint32{1}, st(2, 4))
	s.WriteCell(lattice.MaskOf(0), []uint32{1}, st(10))
	got, ok := s.Get(lattice.MaskOf(0), []uint32{1})
	if !ok || got.Count != 3 || got.Sum != 16 || got.Min != 2 || got.Max != 10 {
		t.Fatalf("merged cell %+v", got)
	}
	if s.NumCells() != 1 || s.NumCuboids() != 1 {
		t.Fatal("counts wrong after merge")
	}
}

// TestDiffSymmetricAndExact: Diff detects missing cells on either side and
// state mismatches; identical sets diff empty.
func TestDiffSymmetricAndExact(t *testing.T) {
	a, b := NewSet(), NewSet()
	a.WriteCell(1, []uint32{1}, st(5))
	b.WriteCell(1, []uint32{1}, st(5))
	if d := a.Diff(b); d != "" {
		t.Fatalf("equal sets diff: %s", d)
	}
	b.WriteCell(2, []uint32{9}, st(1))
	if d := a.Diff(b); !strings.Contains(d, "only in other") {
		t.Fatalf("missing-on-left not reported: %q", d)
	}
	if d := b.Diff(a); !strings.Contains(d, "missing from other") {
		t.Fatalf("missing-on-right not reported: %q", d)
	}
	c := NewSet()
	c.WriteCell(1, []uint32{1}, st(6))
	if d := a.Diff(c); !strings.Contains(d, "state") {
		t.Fatalf("state mismatch not reported: %q", d)
	}
}

// TestFilter: retains exactly the qualifying cells (the §5.1 answering-
// from-precomputation path).
func TestFilter(t *testing.T) {
	s := NewSet()
	s.WriteCell(1, []uint32{1}, st(1))
	s.WriteCell(1, []uint32{2}, st(1, 2))
	s.WriteCell(3, []uint32{2, 2}, st(1, 2, 3))
	f := s.Filter(agg.MinSupport(2))
	if f.NumCells() != 2 {
		t.Fatalf("filter kept %d cells, want 2", f.NumCells())
	}
	if _, ok := f.Get(1, []uint32{1}); ok {
		t.Fatal("support-1 cell survived the filter")
	}
}

// TestMasksSorted: Masks returns ascending cuboid ids.
func TestMasksSorted(t *testing.T) {
	s := NewSet()
	for _, m := range []lattice.Mask{5, 1, 3} {
		s.WriteCell(m, []uint32{0}, st(1))
	}
	got := s.Masks()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Masks() = %v", got)
	}
}

// TestConcurrentWrites: the set must be safe under the parallel runner,
// also when reads seal cuboids that other goroutines are still writing.
func TestConcurrentWrites(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.WriteCell(lattice.Mask(i%4), []uint32{uint32(i % 50)}, st(1))
				if i%64 == 0 {
					s.CuboidColumns(lattice.Mask(g % 4)) // seal while others write
				}
			}
		}(g)
	}
	wg.Wait()
	// i%4 and i%50 share parity, so 4×50/2 = 100 distinct cells exist.
	if s.NumCells() != 100 {
		t.Fatalf("NumCells = %d, want 100", s.NumCells())
	}
	total := int64(0)
	for _, m := range s.Masks() {
		_, states := s.CuboidColumns(m)
		for _, cs := range states {
			total += cs.Count
		}
	}
	if total != 8*500 {
		t.Fatalf("merged counts sum to %d, want 4000", total)
	}
}
