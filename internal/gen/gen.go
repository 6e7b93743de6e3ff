// Package gen produces the synthetic data sets the experiments run on. The
// paper evaluates on a real weather-station relation (176,631 tuples for
// the CUBE experiments, 1,000,000 for POL; 20 dimensions; strong skew —
// range-partitioning the 11th dimension yields one partition 40× the
// smallest). That data set is not available, so Weather generates a
// relation with the same observable knobs: tuple count, a 20-dimension
// cardinality spread whose smallest-9 / largest-9 products bracket the
// paper's sparseness sweep (≈10^7 … ≈10^21 possible cells), and power-law
// per-dimension skew calibrated to reproduce the 40× partition imbalance.
package gen

import (
	"math"
	"math/rand"

	"icebergcube/internal/relation"
)

// Spec describes a synthetic relation.
type Spec struct {
	// Names are optional dimension names (defaults to D0..Dn-1).
	Names []string
	// Cards holds the per-dimension cardinalities.
	Cards []int
	// Skew holds the per-dimension power-law exponent: value code =
	// ⌊card·u^skew⌋ for u uniform in [0,1). 1 is uniform; larger values
	// concentrate mass on low codes. Zero entries default to 1.
	Skew []float64
	// Tuples is the number of rows to generate.
	Tuples int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate materializes the relation described by s.
func Generate(s Spec) *relation.Relation {
	names := s.Names
	if names == nil {
		names = make([]string, len(s.Cards))
		for i := range names {
			names[i] = defaultName(i)
		}
	}
	rel := relation.New(names, s.Cards)
	rng := rand.New(rand.NewSource(s.Seed))
	dims := make([]uint32, len(s.Cards))
	for t := 0; t < s.Tuples; t++ {
		for d, card := range s.Cards {
			skew := 1.0
			if d < len(s.Skew) && s.Skew[d] > 0 {
				skew = s.Skew[d]
			}
			u := rng.Float64()
			if skew != 1.0 {
				u = math.Pow(u, skew)
			}
			v := uint32(u * float64(card))
			if int(v) >= card {
				v = uint32(card - 1)
			}
			dims[d] = v
		}
		rel.Append(dims, math.Floor(rng.Float64()*1000))
	}
	return rel
}

func defaultName(i int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(letters) {
		return letters[i : i+1]
	}
	return "D" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// weatherCards is the 20-dimension cardinality spread. The log10 sum of the
// nine smallest is ≈6.8 and of the nine largest ≈21.4, matching the
// paper's Fig 4.6 x-axis range.
var weatherCards = []int{
	7037, 3053, 715, 352, 179, 64, 48, 36, 26, 21,
	16, 10, 9, 8, 7, 4, 4, 2, 2, 2,
}

// weatherNames gives the dimensions weather-flavoured names.
var weatherNames = []string{
	"station", "date", "solar", "pressure", "windspeed", "visibility",
	"humidity", "temperature", "dewpoint", "cloudhigh",
	"cloudmid", "cloudlow", "windchill", "gust", "precip", "season",
	"frontal", "hemisphere", "land", "daynight",
}

// WeatherSkewDim is the dimension index carrying the strong skew (the
// paper's "11th dimension", index 10 here).
const WeatherSkewDim = 10

// Weather generates the weather-like relation with the full 20 dimensions.
func Weather(tuples int, seed int64) *relation.Relation {
	skew := make([]float64, len(weatherCards))
	for i := range skew {
		skew[i] = 1.3 // mild non-uniformity everywhere, as in real data
	}
	// The real weather data "is very skewed on some of those dimensions";
	// a handful of strongly skewed attributes across the cardinality
	// spectrum reproduces both BPP's partition imbalance and RP's subtree
	// imbalance.
	skew[WeatherSkewDim] = 4.0 // the paper's ≈40× partition-imbalance dim
	skew[0] = 2.0
	skew[3] = 3.0
	skew[7] = 3.5
	skew[13] = 3.0
	skew[16] = 2.5
	return Generate(Spec{
		Names:  weatherNames,
		Cards:  weatherCards,
		Skew:   skew,
		Tuples: tuples,
		Seed:   seed,
	})
}

// PickDimsByProduct greedily selects k dimensions of rel whose cardinality
// product's log10 lands as close to targetLog10 as possible. The baseline
// configuration uses 9 dimensions with product ≈10^13 (§4.2); Fig 4.6
// sweeps the target.
func PickDimsByProduct(rel *relation.Relation, k int, targetLog10 float64) []int {
	type dim struct {
		idx   int
		log10 float64
	}
	dims := make([]dim, rel.NumDims())
	for i := range dims {
		dims[i] = dim{i, math.Log10(float64(rel.Card(i)))}
	}
	// Greedy: repeatedly add the dimension that brings the running sum
	// closest to target*(picked+1)/k, so the selection spreads across the
	// cardinality spectrum rather than exhausting one end.
	picked := make([]int, 0, k)
	used := make([]bool, len(dims))
	sum := 0.0
	for len(picked) < k {
		ideal := targetLog10 * float64(len(picked)+1) / float64(k)
		best, bestGap := -1, math.Inf(1)
		for i, d := range dims {
			if used[i] {
				continue
			}
			gap := math.Abs(sum + d.log10 - ideal)
			if gap < bestGap {
				best, bestGap = i, gap
			}
		}
		used[best] = true
		picked = append(picked, dims[best].idx)
		sum += dims[best].log10
	}
	return picked
}
