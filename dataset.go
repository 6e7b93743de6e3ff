package icebergcube

import (
	"fmt"
	"io"

	"icebergcube/internal/gen"
	"icebergcube/internal/relation"
)

// Dataset is the input relation: named dimension attributes (dictionary
// encoded) plus one numeric measure per row.
type Dataset struct {
	rel  *relation.Relation
	dict *relation.Dictionary
	pos  map[string]int
}

func newDataset(rel *relation.Relation, dict *relation.Dictionary) *Dataset {
	pos := make(map[string]int, rel.NumDims())
	for i := 0; i < rel.NumDims(); i++ {
		pos[rel.Name(i)] = i
	}
	return &Dataset{rel: rel, dict: dict, pos: pos}
}

// LoadCSV reads a data set from CSV: a header row, then one row per tuple;
// all columns but the last are dimensions, the last is the numeric measure.
func LoadCSV(r io.Reader) (*Dataset, error) {
	rel, dict, err := relation.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return newDataset(rel, dict), nil
}

// FromRows builds a data set from in-memory rows: one string per dimension
// plus a measure per row.
func FromRows(dimNames []string, rows [][]string, measures []float64) (*Dataset, error) {
	rel, dict, err := relation.FromRows(dimNames, rows, measures)
	if err != nil {
		return nil, err
	}
	return newDataset(rel, dict), nil
}

// SyntheticWeather generates the paper's weather-like evaluation workload:
// 20 dimensions with the thesis's cardinality spread and skew profile
// (including the heavily skewed dimension whose range partitions differ by
// ≈40×). Deterministic in seed.
func SyntheticWeather(tuples int, seed int64) *Dataset {
	return newDataset(gen.Weather(tuples, seed), nil)
}

// Synthetic generates a data set with explicit cardinalities and power-law
// skew exponents (1 = uniform) per dimension.
func Synthetic(dimNames []string, cards []int, skew []float64, tuples int, seed int64) *Dataset {
	rel := gen.Generate(gen.Spec{Names: dimNames, Cards: cards, Skew: skew, Tuples: tuples, Seed: seed})
	return newDataset(rel, nil)
}

// Len returns the number of tuples.
func (d *Dataset) Len() int { return d.rel.Len() }

// DimNames returns the dimension names in declaration order.
func (d *Dataset) DimNames() []string {
	return append([]string(nil), d.rel.Names()...)
}

// Cardinality returns the number of distinct values of the named dimension.
func (d *Dataset) Cardinality(dim string) (int, error) {
	i, ok := d.pos[dim]
	if !ok {
		return 0, fmt.Errorf("icebergcube: unknown dimension %q", dim)
	}
	return d.rel.Card(i), nil
}

// WriteCSV writes the data set in the format LoadCSV accepts.
func (d *Dataset) WriteCSV(w io.Writer, measureName string) error {
	return d.rel.WriteCSV(w, d.dict, measureName)
}

// resolveDims maps dimension names to relation indices; nil selects all
// dimensions.
func (d *Dataset) resolveDims(names []string) ([]int, error) {
	if names == nil {
		dims := make([]int, d.rel.NumDims())
		for i := range dims {
			dims[i] = i
		}
		return dims, nil
	}
	dims := make([]int, len(names))
	for i, n := range names {
		p, ok := d.pos[n]
		if !ok {
			return nil, fmt.Errorf("icebergcube: unknown dimension %q", n)
		}
		dims[i] = p
	}
	return dims, nil
}

// decode renders a dimension code as its original string (or the code
// itself for synthetic data).
func (d *Dataset) decode(dim int, code uint32) string {
	if d.dict != nil {
		return d.dict.Encoders[dim].Decode(code)
	}
	return fmt.Sprintf("%d", code)
}

// decoder is the schema decode function of a cube over columns dims (cube
// position p is column dims[p]): nil for synthetic data, whose codes are
// their own values.
func (d *Dataset) decoder(dims []int) func(p int, code uint32) string {
	if d.dict == nil {
		return nil
	}
	return func(p int, code uint32) string { return d.dict.Encoders[dims[p]].Decode(code) }
}

// PickDimsByCardinalityProduct selects k dimensions whose cardinality
// product is close to 10^targetLog10 — the knob the paper's sparseness
// experiments sweep. It returns dimension names for use in Query.Dims.
func (d *Dataset) PickDimsByCardinalityProduct(k int, targetLog10 float64) []string {
	idx := gen.PickDimsByProduct(d.rel, k, targetLog10)
	names := make([]string, len(idx))
	for i, p := range idx {
		names[i] = d.rel.Name(p)
	}
	return names
}
