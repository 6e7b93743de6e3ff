package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
)

// resultsLeaf is the reference LeafFromRows replaced: every row written
// into a results.Set as its own cell, then decoded and comparison-sorted
// back into columns.
func resultsLeaf(width int, keys []uint32, meas []float64) *Cuboid {
	set := results.NewSet()
	var mask lattice.Mask
	for p := 0; p < width; p++ {
		mask |= 1 << uint(p)
	}
	for i := range meas {
		st := agg.NewState()
		st.Add(meas[i])
		set.WriteCell(mask, keys[i*width:(i+1)*width], st)
	}
	k, s := set.CuboidColumns(mask)
	return &Cuboid{Mask: mask, Width: width, Keys: k, States: s}
}

// encodeKey renders a code tuple as a comparable map key.
func encodeKey(key []uint32) string { return fmt.Sprint(key) }

// TestLeafFromRowsMatchesReference table-tests the radix leaf builder
// against resultsLeaf over widths 0–6, cardinalities needing one, two and
// three radix passes, and inputs that are empty, all one tuple, or full
// of MIN/MAX ties.
func TestLeafFromRowsMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		rows int
		// row fills one row's codes and returns its measure.
		row func(rng *rand.Rand, key []uint32, card int) float64
	}{
		{"random", 3000, func(rng *rand.Rand, key []uint32, card int) float64 {
			for d := range key {
				key[d] = uint32(rng.Intn(card))
				if rng.Intn(50) == 0 {
					key[d] = uint32(card - 1) // the top code exercises every pass
				}
			}
			return rng.Float64()*200 - 100
		}},
		{"empty", 0, nil},
		{"duplicates", 500, func(rng *rand.Rand, key []uint32, card int) float64 {
			for d := range key {
				key[d] = uint32((card - 1) / (d + 1))
			}
			return rng.Float64()
		}},
		{"ties", 2000, func(rng *rand.Rand, key []uint32, card int) float64 {
			for d := range key {
				key[d] = uint32(rng.Intn(min(card, 3)))
			}
			return float64(rng.Intn(3) - 1)
		}},
	}
	for _, width := range []int{0, 1, 3, 6} {
		for _, card := range []int{2, 256, 257, 65537} {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("w%d/card%d/%s", width, card, sh.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(width*1000003 + card)))
					cards := make([]int, width)
					for d := range cards {
						cards[d] = card
					}
					keys := make([]uint32, 0, sh.rows*width)
					meas := make([]float64, sh.rows)
					key := make([]uint32, width)
					for i := range meas {
						meas[i] = sh.row(rng, key, card)
						keys = append(keys, key...)
					}
					checkLeaf(t, LeafFromRows(width, keys, meas, cards), resultsLeaf(width, keys, meas))
				})
			}
		}
	}
}

func checkLeaf(t *testing.T, got, want *Cuboid) {
	t.Helper()
	if got.Mask != want.Mask || got.Width != want.Width {
		t.Fatalf("mask %b width %d, want mask %b width %d", got.Mask, got.Width, want.Mask, want.Width)
	}
	if got.Rows() != want.Rows() || !slices.Equal(got.Keys, want.Keys) {
		t.Fatalf("%d cells, want %d (or keys differ)", got.Rows(), want.Rows())
	}
	for i, w := range want.States {
		s := got.States[i]
		if s.Count != w.Count || math.Abs(s.Sum-w.Sum) > 1e-9 || s.Min != w.Min || s.Max != w.Max {
			t.Fatalf("cell %d %v: state %+v, want %+v", i, want.Row(i), s, w)
		}
	}
}
