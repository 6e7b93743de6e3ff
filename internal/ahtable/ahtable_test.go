package ahtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"icebergcube/internal/agg"
	"icebergcube/internal/cost"
)

// TestPlanBits: never below 1 bit where possible, fits the budget, starts
// from log2(card).
func TestPlanBits(t *testing.T) {
	cases := []struct {
		cards  []int
		budget int
		want   []int
	}{
		{[]int{8, 4}, 10, []int{3, 2}},       // fits untouched
		{[]int{1024, 1024}, 12, []int{6, 6}}, // shaved evenly
		{[]int{1024, 4}, 8, []int{6, 2}},     // widest shaved first
		{[]int{2, 2, 2}, 2, []int{0, 1, 1}},  // forced under-budget (first widest shaved)
	}
	for _, c := range cases {
		got := PlanBits(c.cards, c.budget)
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != c.want[i] {
				t.Errorf("PlanBits(%v,%d) = %v, want %v", c.cards, c.budget, got, c.want)
				break
			}
		}
		if total > c.budget {
			t.Errorf("PlanBits(%v,%d) total %d over budget", c.cards, c.budget, total)
		}
	}
}

// TestAddGetAgainstMap: the table agrees with a hash map under random
// streams, regardless of collisions.
func TestAddGetAgainstMap(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 2 + int(bitsRaw)%8 // tiny budgets force heavy chaining
		var ctr cost.Counters
		cards := []int{13, 7, 29}
		tb := New([]int{0, 1, 2}, PlanBits(cards, budget), &ctr)
		ref := make(map[[3]uint32]agg.State)
		for i := 0; i < 500; i++ {
			k := [3]uint32{uint32(rng.Intn(13)), uint32(rng.Intn(7)), uint32(rng.Intn(29))}
			m := float64(rng.Intn(50))
			tb.Add(k[:], m)
			s, ok := ref[k]
			if !ok {
				s = agg.NewState()
			}
			s.Add(m)
			ref[k] = s
		}
		if tb.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got, ok := tb.Get(k[:])
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCollapseEqualsRebuild: collapsing onto a position subset must equal
// aggregating the cells from scratch — AHT's subset-affinity correctness.
func TestCollapseEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ctr cost.Counters
	cards := []int{11, 5, 7, 3}
	full := New([]int{0, 1, 2, 3}, PlanBits(cards, 10), &ctr)
	type key4 = [4]uint32
	raw := make([]key4, 0, 800)
	meas := make([]float64, 0, 800)
	for i := 0; i < 800; i++ {
		k := key4{uint32(rng.Intn(11)), uint32(rng.Intn(5)), uint32(rng.Intn(7)), uint32(rng.Intn(3))}
		m := float64(rng.Intn(20))
		full.Add(k[:], m)
		raw = append(raw, k)
		meas = append(meas, m)
	}
	for _, sub := range [][]int{{0}, {1, 3}, {0, 2, 3}, {0, 1, 2, 3}} {
		collapsed := full.Collapse(sub)
		ref := make(map[string]agg.State)
		for i, k := range raw {
			pk := make([]byte, 0, 16)
			for _, p := range sub {
				v := k[p]
				pk = append(pk, byte(v), byte(v>>8))
			}
			s, ok := ref[string(pk)]
			if !ok {
				s = agg.NewState()
			}
			s.Add(meas[i])
			ref[string(pk)] = s
		}
		if collapsed.Len() != len(ref) {
			t.Fatalf("Collapse(%v): %d cells, want %d", sub, collapsed.Len(), len(ref))
		}
		key := make([]uint32, len(sub))
		total := int64(0)
		collapsed.Scan(func(k []uint32, st agg.State) bool {
			copy(key, k)
			total += st.Count
			return true
		})
		if total != 800 {
			t.Fatalf("Collapse(%v): counts sum to %d, want 800", sub, total)
		}
	}
}

// TestCollapsePanicsOnNonSubset guards the contract.
func TestCollapsePanicsOnNonSubset(t *testing.T) {
	var ctr cost.Counters
	tb := New([]int{0, 2}, []int{2, 2}, &ctr)
	defer func() {
		if recover() == nil {
			t.Fatal("Collapse with a non-subset position should panic")
		}
	}()
	tb.Collapse([]int{1})
}

// TestCollisionAccounting: a 0-bit-per-attribute table chains everything
// and must report collisions.
func TestCollisionAccounting(t *testing.T) {
	var ctr cost.Counters
	tb := New([]int{0}, []int{1}, &ctr) // 2 buckets
	for i := 0; i < 64; i++ {
		tb.Add([]uint32{uint32(i)}, 1)
	}
	if ctr.Collisions == 0 {
		t.Fatal("64 distinct keys in 2 buckets produced no collision counts")
	}
	if tb.MaxChain() < 16 {
		t.Fatalf("MaxChain = %d, expected long chains", tb.MaxChain())
	}
}

// TestMergeState folds whole states.
func TestMergeState(t *testing.T) {
	var ctr cost.Counters
	tb := New([]int{0}, []int{3}, &ctr)
	st := agg.NewState()
	st.Add(5)
	st.Add(7)
	if !tb.MergeState([]uint32{1}, st) {
		t.Fatal("first MergeState should create the cell")
	}
	if tb.MergeState([]uint32{1}, st) {
		t.Fatal("second MergeState should merge, not create")
	}
	got, _ := tb.Get([]uint32{1})
	if got.Count != 4 || got.Sum != 24 {
		t.Fatalf("merged state %+v", got)
	}
}

// TestSizeBytesGrows: footprint accounting moves with contents.
func TestSizeBytesGrows(t *testing.T) {
	var ctr cost.Counters
	tb := New([]int{0, 1}, []int{4, 4}, &ctr)
	empty := tb.SizeBytes()
	for i := 0; i < 100; i++ {
		tb.Add([]uint32{uint32(i % 16), uint32(i / 16)}, 1)
	}
	if tb.SizeBytes() <= empty {
		t.Fatal("SizeBytes did not grow with cells")
	}
}
