package core

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// NaiveCube computes the iceberg cube by brute force — one hash-map
// aggregation pass per cuboid — and returns the collected cells. It is the
// correctness oracle every algorithm in the suite is verified against; it
// makes no attempt to be fast. It groups through its own string-keyed
// maps, so the reference shares no sort or merge kernel with the sink it
// fills.
func NaiveCube(rel *relation.Relation, dims []int, cond agg.Condition) *results.Set {
	out := results.NewSet()

	// "all" cell.
	all := agg.NewState()
	for row := 0; row < rel.Len(); row++ {
		all.Add(rel.Measure(row))
	}
	if cond.Holds(all) {
		out.WriteCell(0, nil, all)
	}

	for _, mask := range lattice.All(len(dims)) {
		pos := mask.Dims()
		groups := make(map[string]*agg.State)
		key := make([]uint32, len(pos))
		buf := make([]byte, 4*len(pos))
		for row := 0; row < rel.Len(); row++ {
			for i, p := range pos {
				v := rel.Value(dims[p], row)
				key[i] = v
				buf[4*i] = byte(v)
				buf[4*i+1] = byte(v >> 8)
				buf[4*i+2] = byte(v >> 16)
				buf[4*i+3] = byte(v >> 24)
			}
			k := string(buf)
			st := groups[k]
			if st == nil {
				ns := agg.NewState()
				st = &ns
				groups[k] = st
			}
			st.Add(rel.Measure(row))
		}
		for k, st := range groups {
			if cond.Holds(*st) {
				for i := range key {
					key[i] = uint32(k[4*i]) | uint32(k[4*i+1])<<8 | uint32(k[4*i+2])<<16 | uint32(k[4*i+3])<<24
				}
				out.WriteCell(mask, key, *st)
			}
		}
	}
	return out
}
