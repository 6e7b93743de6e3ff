package relation

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func randomRel(seed int64, tuples int, cards []int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, len(cards))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	r := New(names, cards)
	dims := make([]uint32, len(cards))
	for t := 0; t < tuples; t++ {
		for d, c := range cards {
			dims[d] = uint32(rng.Intn(c))
		}
		r.Append(dims, float64(rng.Intn(1000)))
	}
	return r
}

// TestSortViewProperty: SortView must produce a lexicographically sorted
// permutation of the input rows, for random shapes (counting sort and
// comparison sort paths both land here).
func TestSortViewProperty(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		cards := [][]int{
			{4, 3, 5},
			{100000, 7},   // forces comparison sort on dim 0
			{2, 2, 2, 17}, // deep counting-sort recursion
		}[int(pick)%3]
		r := randomRel(seed, 300, cards)
		idx := r.Identity()
		dims := make([]int, r.NumDims())
		for i := range dims {
			dims[i] = i
		}
		r.SortView(idx, dims, nil)
		// Permutation check.
		seen := make([]bool, r.Len())
		for _, row := range idx {
			if seen[row] {
				return false
			}
			seen[row] = true
		}
		// Order check.
		for i := 1; i < len(idx); i++ {
			if r.CompareRows(idx[i-1], idx[i], dims, NopCounter()) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSortStability: equal keys must keep storage order (counting sort and
// SliceStable both guarantee it; BPP's incremental sorts rely on it).
func TestSortStability(t *testing.T) {
	r := randomRel(3, 500, []int{3, 4})
	idx := r.Identity()
	r.SortView(idx, []int{0}, nil)
	for i := 1; i < len(idx); i++ {
		if r.Value(0, int(idx[i-1])) == r.Value(0, int(idx[i])) && idx[i-1] > idx[i] {
			t.Fatalf("instability at %d: rows %d, %d", i, idx[i-1], idx[i])
		}
	}
}

// TestPartitionView: boundaries delimit equal-value runs covering the view.
func TestPartitionView(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRel(seed, 400, []int{6, 3})
		idx := r.Identity()
		bounds := r.PartitionView(idx, 0, nil)
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(idx) {
			return false
		}
		for i := 0; i+1 < len(bounds); i++ {
			lo, hi := bounds[i], bounds[i+1]
			if lo >= hi {
				return false // empty runs must be elided
			}
			v := r.Value(0, int(idx[lo]))
			for j := lo; j < hi; j++ {
				if r.Value(0, int(idx[j])) != v {
					return false
				}
			}
			if i > 0 && r.Value(0, int(idx[lo-1])) >= v {
				return false // runs must be in increasing value order
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRangePartitionProperty: chunks are disjoint, cover every row, respect
// value ranges (no value split across chunks), and the count equals n.
func TestRangePartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%8
		r := randomRel(seed, 300, []int{5, 97})
		for d := 0; d < 2; d++ {
			chunks := r.RangePartition(d, n)
			if len(chunks) != n {
				return false
			}
			seen := make([]bool, r.Len())
			chunkOfValue := make(map[uint32]int)
			for c, chunk := range chunks {
				for _, row := range chunk {
					if seen[row] {
						return false
					}
					seen[row] = true
					v := r.Value(d, int(row))
					if prev, ok := chunkOfValue[v]; ok && prev != c {
						return false // value split across chunks
					}
					chunkOfValue[v] = c
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
			// Ranges: max value of chunk i < min value of chunk i+1.
			prevMax := -1
			for _, chunk := range chunks {
				if len(chunk) == 0 {
					continue
				}
				min, max := int(^uint32(0)>>1), -1
				for _, row := range chunk {
					v := int(r.Value(d, int(row)))
					if v < min {
						min = v
					}
					if v > max {
						max = v
					}
				}
				if min <= prevMax {
					return false
				}
				prevMax = max
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRangePartitionSkew: a two-value attribute across 4 chunks leaves two
// chunks empty — the paper's Gender example (§3.3).
func TestRangePartitionSkew(t *testing.T) {
	r := New([]string{"Gender"}, []int{2})
	for i := 0; i < 100; i++ {
		r.Append([]uint32{uint32(i % 2)}, 1)
	}
	chunks := r.RangePartition(0, 4)
	nonEmpty := 0
	for _, c := range chunks {
		if len(c) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("2-value attribute over 4 processors: %d non-empty chunks, want 2", nonEmpty)
	}
}

// TestBlockPartition: contiguous, near-equal, covering.
func TestBlockPartition(t *testing.T) {
	r := randomRel(1, 103, []int{4})
	chunks := r.BlockPartition(4)
	total, next := 0, int32(0)
	for _, c := range chunks {
		total += len(c)
		for _, row := range c {
			if row != next {
				t.Fatalf("blocks not contiguous at row %d", row)
			}
			next++
		}
	}
	if total != 103 {
		t.Fatalf("blocks cover %d rows, want 103", total)
	}
	for _, c := range chunks {
		if len(c) < 25 || len(c) > 26 {
			t.Fatalf("uneven block sizes: %d", len(c))
		}
	}
}

// TestEncoderRoundTrip: encode/decode is the identity on strings; codes are
// dense and first-seen ordered.
func TestEncoderRoundTrip(t *testing.T) {
	e := NewEncoder()
	words := []string{"b", "a", "b", "c", "a"}
	codes := make([]uint32, len(words))
	for i, w := range words {
		codes[i] = e.Encode(w)
	}
	if codes[0] != codes[2] || codes[1] != codes[4] || e.Card() != 3 {
		t.Fatalf("codes %v card %d", codes, e.Card())
	}
	for i, w := range words {
		if e.Decode(codes[i]) != w {
			t.Fatalf("decode(%d) != %q", codes[i], w)
		}
	}
	if _, ok := e.Lookup("zzz"); ok {
		t.Fatal("Lookup invented a code")
	}
}

// TestCSVRoundTrip: WriteCSV then ReadCSV reproduces the relation.
func TestCSVRoundTrip(t *testing.T) {
	rel, dict, err := FromRows(
		[]string{"city", "kind"},
		[][]string{{"Vancouver", "rain"}, {"Seattle", "rain"}, {"Vancouver", "sun"}},
		[]float64{1.5, 2, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf, dict, "amount"); err != nil {
		t.Fatal(err)
	}
	rel2, dict2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != rel.Len() || rel2.NumDims() != rel.NumDims() {
		t.Fatalf("round trip shape: %d×%d", rel2.Len(), rel2.NumDims())
	}
	for row := 0; row < rel.Len(); row++ {
		for d := 0; d < rel.NumDims(); d++ {
			if dict.Encoders[d].Decode(rel.Value(d, row)) != dict2.Encoders[d].Decode(rel2.Value(d, row)) {
				t.Fatalf("row %d dim %d mismatch", row, d)
			}
		}
		if rel.Measure(row) != rel2.Measure(row) {
			t.Fatalf("row %d measure mismatch", row)
		}
	}
}

// TestCSVErrors covers malformed inputs.
func TestCSVErrors(t *testing.T) {
	for _, csv := range []string{
		"",                // no header
		"only\n1\n",       // single column
		"a,m\nx,NaNope\n", // bad measure
		"a,m\nx\n",        // short record (encoding/csv catches)
	} {
		if _, _, err := ReadCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", csv)
		}
	}
}

// TestDimsByCardinality orders ascending.
func TestDimsByCardinality(t *testing.T) {
	r := New([]string{"A", "B", "C"}, []int{50, 2, 7})
	got := r.DimsByCardinality()
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DimsByCardinality() = %v, want %v", got, want)
		}
	}
}

// TestAppendValidation panics on malformed tuples.
func TestAppendValidation(t *testing.T) {
	r := New([]string{"A"}, []int{3})
	for _, bad := range [][]uint32{{5}, {0, 0}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) should panic", bad)
				}
			}()
			r.Append(bad, 0)
		}()
	}
}

// TestCompareRows covers the three-way comparison with counting.
func TestCompareRows(t *testing.T) {
	r := New([]string{"A", "B"}, []int{4, 4})
	r.Append([]uint32{1, 2}, 0)
	r.Append([]uint32{1, 3}, 0)
	r.Append([]uint32{1, 2}, 0)
	var ctr countCmp
	if r.CompareRows(0, 1, []int{0, 1}, &ctr) >= 0 {
		t.Fatal("row 0 should sort before row 1")
	}
	if r.CompareRows(1, 0, []int{0, 1}, &ctr) <= 0 {
		t.Fatal("row 1 should sort after row 0")
	}
	if r.CompareRows(0, 2, []int{0, 1}, &ctr) != 0 {
		t.Fatal("identical rows should compare equal")
	}
	if ctr == 0 {
		t.Fatal("comparisons not charged")
	}
}

type countCmp int64

func (c *countCmp) AddCompares(n int64) { *c += countCmp(n) }

// TestRunsHelper validates run detection on a sorted view.
func TestRunsHelper(t *testing.T) {
	r := New([]string{"A"}, []int{3})
	for _, v := range []uint32{0, 0, 1, 2, 2, 2} {
		r.Append([]uint32{v}, 0)
	}
	idx := r.Identity()
	bounds := r.Runs(idx, 0)
	want := []int{0, 2, 3, 6}
	if len(bounds) != len(want) {
		t.Fatalf("Runs = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("Runs = %v, want %v", bounds, want)
		}
	}
}

// TestSortViewMatchesSortSlice cross-checks against the standard library on
// one large mixed-cardinality relation.
func TestSortViewMatchesSortSlice(t *testing.T) {
	r := randomRel(11, 2000, []int{9, 120000, 3})
	dims := []int{2, 1, 0}
	idx := r.Identity()
	r.SortView(idx, dims, nil)

	ref := r.Identity()
	sort.SliceStable(ref, func(a, b int) bool {
		return r.CompareRows(ref[a], ref[b], dims, NopCounter()) < 0
	})
	for i := range ref {
		// Orders may legitimately differ among equal keys only.
		if r.CompareRows(idx[i], ref[i], dims, NopCounter()) != 0 {
			t.Fatalf("position %d: SortView row %d != reference row %d", i, idx[i], ref[i])
		}
	}
}
