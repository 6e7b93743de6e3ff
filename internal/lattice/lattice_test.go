package lattice

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// TestMaskBasics covers construction and accessors.
func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 2, 5)
	if m != 0b100101 {
		t.Fatalf("MaskOf = %b", m)
	}
	if got := m.Dims(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("Dims() = %v", got)
	}
	if m.Count() != 3 || !m.Has(2) || m.Has(1) {
		t.Fatal("Count/Has wrong")
	}
	if m.Label([]string{"A", "B", "C", "D", "E", "F"}) != "A,C,F" {
		t.Fatalf("Label = %q", m.Label([]string{"A", "B", "C", "D", "E", "F"}))
	}
	if Mask(0).Label(nil) != "ALL" {
		t.Fatal("empty mask label")
	}
}

// TestPrefixOfProperty: PrefixOf(m, o) ⇔ m's dim list is a prefix of o's.
func TestPrefixOfProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		m, o := Mask(a&0x3FF), Mask(b&0x3FF)
		want := isPrefixRef(m.Dims(), o.Dims())
		return m.PrefixOf(o) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func isPrefixRef(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSubsetOfProperty cross-checks SubsetOf against the definition.
func TestSubsetOfProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		m, o := Mask(a), Mask(b)
		want := (uint16(m) & ^uint16(o)) == 0
		return m.SubsetOf(o) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllAndLevels: All(d) lists the 2^d-1 non-empty cuboids; NumCuboids
// counts "all" too.
func TestAllAndLevels(t *testing.T) {
	for d := 1; d <= 8; d++ {
		all := All(d)
		if len(all) != (1<<uint(d))-1 {
			t.Fatalf("All(%d) = %d masks", d, len(all))
		}
		if NumCuboids(d) != 1<<uint(d) {
			t.Fatalf("NumCuboids(%d) = %d", d, NumCuboids(d))
		}
	}
}

// TestRPTasksPartitionLattice: RP's m subtrees partition the 2^d-1 cuboids
// exactly (every non-empty cuboid in exactly one subtree).
func TestRPTasksPartitionLattice(t *testing.T) {
	for d := 1; d <= 8; d++ {
		tasks := RPTasks(d)
		if len(tasks) != d {
			t.Fatalf("RPTasks(%d) = %d tasks", d, len(tasks))
		}
		seen := make(map[Mask]int)
		for _, task := range tasks {
			for m := range task.Nodes {
				seen[m]++
			}
		}
		if len(seen) != (1<<uint(d))-1 {
			t.Fatalf("d=%d: subtrees cover %d cuboids, want %d", d, len(seen), (1<<uint(d))-1)
		}
		for m, n := range seen {
			if n != 1 {
				t.Fatalf("d=%d: cuboid %b in %d subtrees", d, m, n)
			}
		}
		// The subtree rooted at dimension i holds 2^(d-1-i) nodes — the
		// size imbalance that breaks RP's load balance.
		for i, task := range tasks {
			if task.Size() != 1<<uint(d-1-i) {
				t.Fatalf("d=%d: |T_%d| = %d, want %d", d, i, task.Size(), 1<<uint(d-1-i))
			}
		}
	}
}

// TestBinaryDivisionProperty: tasks partition the lattice, each task's
// nodes all extend its root, and sizes are powers of two (equal splits).
func TestBinaryDivisionProperty(t *testing.T) {
	f := func(dRaw, tRaw uint8) bool {
		d := 2 + int(dRaw)%8
		minTasks := 1 + int(tRaw)%32
		tasks := BinaryDivision(d, minTasks)
		if len(tasks) < minTasks && len(tasks) != (1<<uint(d))-1 {
			return false // must reach the target unless fully atomized
		}
		seen := make(map[Mask]bool)
		for _, task := range tasks {
			if task.Size() == 0 {
				return false
			}
			// Sizes are 2^k (full or chopped subtrees) or 2^k−1 (the
			// remainder rooted at the removed "all" node).
			s := task.Size()
			if s&(s-1) != 0 && s&(s+1) != 0 {
				return false
			}
			for m := range task.Nodes {
				if seen[m] {
					return false
				}
				seen[m] = true
				if !task.Root.SubsetOf(m) {
					return false
				}
			}
		}
		return len(seen) == (1<<uint(d))-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryDivisionFigure3_9 reproduces the paper's four-task example: a
// 4-dimension tree divides into T_AB, T_A−T_AB, T_B, T_all−T_A−T_B.
func TestBinaryDivisionFigure3_9(t *testing.T) {
	tasks := BinaryDivision(4, 4)
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	bySize := map[Mask]int{}
	for _, task := range tasks {
		bySize[task.Root] = task.Size()
	}
	// Every task has 15/4 ≈ 4 nodes except sizes must sum to 15.
	total := 0
	for _, task := range tasks {
		total += task.Size()
	}
	if total != 15 {
		t.Fatalf("tasks cover %d nodes, want 15", total)
	}
	// Expected roots: A (chopped), AB (full), B (full), and the chopped
	// remainder rooted at "all".
	for _, root := range []Mask{MaskOf(0), MaskOf(0, 1), MaskOf(1), 0} {
		if _, ok := bySize[root]; !ok {
			t.Fatalf("missing task rooted at %b; roots: %v", root, bySize)
		}
	}
}

// TestDescendantMasks: the full subtree of root r in d dims has 2^(d-1-max)
// nodes.
func TestDescendantMasks(t *testing.T) {
	for d := 1; d <= 10; d++ {
		for root := 0; root < d; root++ {
			got := DescendantMasks(MaskOf(root), d)
			want := 1 << uint(d-1-root)
			if len(got) != want {
				t.Fatalf("d=%d root=%d: %d descendants, want %d", d, root, len(got), want)
			}
		}
	}
}

// TestAffinityPicks covers the manager's selection order helpers.
func TestAffinityPicks(t *testing.T) {
	remaining := map[Mask]bool{
		MaskOf(0):       true, // A
		MaskOf(0, 1):    true, // AB
		MaskOf(1, 2):    true, // BC
		MaskOf(0, 2, 3): true, // ACD
	}
	prev := MaskOf(0, 1, 2) // ABC
	if m, ok := PickPrefix(remaining, prev); !ok || m != MaskOf(0, 1) {
		t.Fatalf("PickPrefix = %b,%v; want AB", m, ok)
	}
	if m, ok := PickSubset(remaining, prev); !ok || m != MaskOf(0, 1) {
		t.Fatalf("PickSubset = %b,%v; want AB (largest subset)", m, ok)
	}
	if m, ok := PickLargest(remaining); !ok || m != MaskOf(0, 2, 3) {
		t.Fatalf("PickLargest = %b,%v; want ACD", m, ok)
	}
	delete(remaining, MaskOf(0, 1))
	if m, ok := PickPrefix(remaining, prev); !ok || m != MaskOf(0) {
		t.Fatalf("PickPrefix after removal = %b,%v; want A", m, ok)
	}
	if _, ok := PickPrefix(map[Mask]bool{MaskOf(3): true}, prev); ok {
		t.Fatal("PickPrefix found a non-prefix")
	}
	if _, ok := PickLargest(map[Mask]bool{}); ok {
		t.Fatal("PickLargest on empty set")
	}
}

// TestLongestPrefixLen spot checks.
func TestLongestPrefixLen(t *testing.T) {
	cases := []struct {
		a, b Mask
		want int
	}{
		{MaskOf(0, 1, 2), MaskOf(0, 1, 3), 2},
		{MaskOf(0), MaskOf(1), 0},
		{MaskOf(2, 3), MaskOf(2, 3), 2},
		{0, MaskOf(1), 0},
	}
	for _, c := range cases {
		if got := LongestPrefixLen(c.a, c.b); got != c.want {
			t.Errorf("LongestPrefixLen(%b,%b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestPrefixImpliesSubset: prefix affinity is strictly stronger than subset
// affinity.
func TestPrefixImpliesSubset(t *testing.T) {
	f := func(a, b uint16) bool {
		m, o := Mask(a), Mask(b)
		return !m.PrefixOf(o) || m.SubsetOf(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDimsRoundTrip: MaskOf(Dims()) is the identity.
func TestDimsRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		m := Mask(a & ((1 << MaxDims) - 1))
		back := MaskOf(m.Dims()...)
		_ = bits.OnesCount32(uint32(m))
		return back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
