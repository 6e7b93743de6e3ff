package gen

import (
	"math"
	"testing"
)

// TestDeterminism: same spec, same relation.
func TestDeterminism(t *testing.T) {
	a := Weather(2000, 7)
	b := Weather(2000, 7)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for row := 0; row < a.Len(); row += 97 {
		for d := 0; d < a.NumDims(); d++ {
			if a.Value(d, row) != b.Value(d, row) {
				t.Fatalf("row %d dim %d differs", row, d)
			}
		}
		if a.Measure(row) != b.Measure(row) {
			t.Fatalf("row %d measure differs", row)
		}
	}
	c := Weather(2000, 8)
	same := true
	for row := 0; row < 100; row++ {
		if a.Value(0, row) != c.Value(0, row) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestWeatherShape: 20 dimensions, codes within cardinalities, named.
func TestWeatherShape(t *testing.T) {
	rel := Weather(5000, 1)
	if rel.NumDims() != 20 {
		t.Fatalf("%d dims", rel.NumDims())
	}
	if rel.Name(0) != "station" || rel.Name(19) != "daynight" {
		t.Fatal("names wrong")
	}
	for d := 0; d < rel.NumDims(); d++ {
		for row := 0; row < rel.Len(); row += 131 {
			if int(rel.Value(d, row)) >= rel.Card(d) {
				t.Fatalf("dim %d code out of range", d)
			}
		}
	}
}

// TestWeatherSkewImbalance reproduces the paper's observation (§4.2):
// range-partitioning the skewed dimension cannot balance the load because
// a code's rows are never split across chunks. The heaviest value alone
// dwarfs the ideal per-chunk share, and swallowing several ideal shares
// leaves later chunks empty. (The seed repo measured max/min over
// non-empty chunks, but that ratio rewarded the old greedy-cut bug that
// starved trailing chunks; max-vs-ideal is the skew itself.)
func TestWeatherSkewImbalance(t *testing.T) {
	rel := Weather(50000, 2001)
	n := 8
	chunks := rel.RangePartition(WeatherSkewDim, n)
	max, empty := 0, 0
	for _, c := range chunks {
		if len(c) == 0 {
			empty++
		}
		if len(c) > max {
			max = len(c)
		}
	}
	ideal := float64(rel.Len()) / float64(n)
	if ratio := float64(max) / ideal; ratio < 3 {
		t.Fatalf("skewed dimension largest chunk is %.1f× the ideal share, want ≥3× imbalance", ratio)
	}
	if empty == 0 {
		t.Fatal("heavy value should swallow several ideal shares and leave empty chunks")
	}
}

// TestSparsenessKnob: PickDimsByProduct hits its target within a factor.
func TestSparsenessKnob(t *testing.T) {
	rel := Weather(1000, 3)
	for _, target := range []float64{7, 13, 21} {
		dims := PickDimsByProduct(rel, 9, target)
		if len(dims) != 9 {
			t.Fatalf("picked %d dims", len(dims))
		}
		seen := map[int]bool{}
		logSum := 0.0
		for _, d := range dims {
			if seen[d] {
				t.Fatalf("dimension %d picked twice", d)
			}
			seen[d] = true
			logSum += math.Log10(float64(rel.Card(d)))
		}
		if math.Abs(logSum-target) > 2 {
			t.Fatalf("target 10^%.0f, got 10^%.1f", target, logSum)
		}
	}
}

// TestUniformCoversSpace: uniform generation reaches high codes.
func TestUniformCoversSpace(t *testing.T) {
	rel := Generate(Spec{Cards: []int{10}, Tuples: 5000, Seed: 4})
	seen := make([]bool, 10)
	for row := 0; row < rel.Len(); row++ {
		seen[rel.Value(0, row)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d never generated", v)
		}
	}
}

// TestSkewConcentrates: a high skew exponent shifts mass to low codes.
func TestSkewConcentrates(t *testing.T) {
	skewed := Generate(Spec{Cards: []int{100}, Skew: []float64{4}, Tuples: 10000, Seed: 5})
	low := 0
	for row := 0; row < skewed.Len(); row++ {
		if skewed.Value(0, row) < 10 {
			low++
		}
	}
	// With u^4, P(code < 10) = 0.1^(1/4) ≈ 0.56.
	if frac := float64(low) / float64(skewed.Len()); frac < 0.4 {
		t.Fatalf("skew 4 put only %.0f%% of mass in the lowest decile", 100*frac)
	}
}

// TestDefaultNames: generated dims get stable names.
func TestDefaultNames(t *testing.T) {
	rel := Generate(Spec{Cards: []int{2, 2, 2}, Tuples: 10, Seed: 1})
	if rel.Name(0) != "A" || rel.Name(2) != "C" {
		t.Fatalf("names %v", rel.Names())
	}
}
