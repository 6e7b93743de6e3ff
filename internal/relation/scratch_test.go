package relation

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestSortKernelsByteIdenticalToReference: every kernel the dispatcher can
// pick (counting sort, LSD radix, insertion sort, and their mixes across
// recursion levels) is stable, so the produced permutation must be
// *byte-identical* to sort.SliceStable's — not merely key-equivalent.
func TestSortKernelsByteIdenticalToReference(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		cards := [][]int{
			{4, 3, 5},         // counting sort at every level
			{100000, 7},       // radix on dim 0 (cardinality ≫ 4·n)
			{2, 2, 2, 17},     // deep recursion, tiny runs → insertion sort
			{50000, 2, 60000}, // radix / counting / radix mix
			{9, 120000, 3},    // counting → radix → counting
		}[int(pick)%5]
		r := randomRel(seed, 1+int(uint16(seed))%700, cards)
		dims := make([]int, r.NumDims())
		for i := range dims {
			dims[i] = r.NumDims() - 1 - i
		}
		idx := r.Identity()
		s := NewScratch()
		r.SortViewScratch(idx, dims, nil, s)

		ref := r.Identity()
		sort.SliceStable(ref, func(a, b int) bool {
			return r.CompareRows(ref[a], ref[b], dims, NopCounter()) < 0
		})
		for i := range ref {
			if idx[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSortKernelsCountingAgreesWithRadix: forcing each single-dimension
// kernel over the same column yields the same permutation (the dispatcher
// picks by cardinality, so correctness must not depend on the pick).
func TestSortKernelsCountingAgreesWithRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, card = 3000, 50000 // card > 4n → dispatcher would pick radix
	r := New([]string{"A"}, []int{card})
	for i := 0; i < n; i++ {
		r.Append([]uint32{uint32(rng.Intn(card))}, 0)
	}
	s := NewScratch()

	radix := r.Identity()
	r.SortViewScratch(radix, []int{0}, nil, s)

	counting := r.Identity()
	r.countingSort(counting, 0, NopCounter(), s, false)

	for i := range radix {
		if radix[i] != counting[i] {
			t.Fatalf("kernel divergence at %d: radix row %d, counting row %d", i, radix[i], counting[i])
		}
	}
}

// TestSortViewScratchZeroAlloc: once a worker's Scratch is warm, sorting
// allocates nothing — the core acceptance property of the arena refactor.
func TestSortViewScratchZeroAlloc(t *testing.T) {
	r := randomRel(7, 4000, []int{8, 120000, 4, 3})
	dims := []int{0, 1, 2, 3}
	base := r.Identity()
	idx := r.Identity()
	s := NewScratch()
	r.SortViewScratch(idx, dims, nil, s) // warm the arena

	allocs := testing.AllocsPerRun(20, func() {
		copy(idx, base)
		r.SortViewScratch(idx, dims, nil, s)
	})
	if allocs != 0 {
		t.Fatalf("warmed SortViewScratch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPartitionViewScratchZeroAlloc: same for the partition kernel; the
// caller returns the bounds slice to the arena, closing the loop.
func TestPartitionViewScratchZeroAlloc(t *testing.T) {
	r := randomRel(8, 4000, []int{120000, 5})
	base := r.Identity()
	idx := r.Identity()
	s := NewScratch()
	for _, d := range []int{0, 1} { // radix-with-bounds and counting paths
		s.PutInts(r.PartitionViewScratch(idx, d, nil, s)) // warm
		allocs := testing.AllocsPerRun(20, func() {
			copy(idx, base)
			bounds := r.PartitionViewScratch(idx, d, nil, s)
			s.PutInts(bounds)
		})
		if allocs != 0 {
			t.Fatalf("dim %d: warmed PartitionViewScratch allocates %.1f objects per run, want 0", d, allocs)
		}
	}
}

// TestScratchPoolDiscipline: pooled buffers come back empty with enough
// capacity, and Put makes the backing array available again.
func TestScratchPoolDiscipline(t *testing.T) {
	s := NewScratch()
	a := s.Ints(100)
	if len(a) != 0 || cap(a) < 100 {
		t.Fatalf("Ints(100): len %d cap %d", len(a), cap(a))
	}
	a = append(a, 1, 2, 3)
	s.PutInts(a)
	b := s.Ints(50)
	if cap(b) < 100 {
		t.Fatal("pooled buffer not reused")
	}
	// Nil receiver: every accessor must still hand out working buffers.
	var nilS *Scratch
	if got := nilS.Int32s(10); cap(got) < 10 {
		t.Fatal("nil Scratch Int32s")
	}
	nilS.PutInt32s(nil) // must not panic
	if got := nilS.Uint32s(4); cap(got) < 4 {
		t.Fatal("nil Scratch Uint32s")
	}
}
