package icebergcube

import (
	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/results"
)

// answerLeafRescan is the pre-serving-layer Answer: rescan every cell of
// the current snapshot's leaf through a results.Set, whatever the
// query shape. It is kept as the differential reference the oracle suite
// and the serving benchmarks compare against.
func (m *Materialized) answerLeafRescan(groupBy []string, minSupport int64) ([]Cell, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	order, _, err := m.resolveGroupBy(groupBy)
	if err != nil {
		return nil, err
	}
	attrs := make([]string, len(order))
	for i, p := range order {
		attrs[i] = m.attrs[p]
	}

	// Aggregate the leaf cuboid's cells onto the requested attributes.
	leaf := m.cube.Current().Srv.Leaf()
	w := len(order)
	mask := lattice.Mask(1)<<uint(w) - 1
	groups := results.NewSet()
	key := make([]uint32, w)
	for i := 0; i < leaf.Rows(); i++ {
		for j, p := range order {
			key[j] = leaf.Row(i)[p]
		}
		groups.WriteCell(mask, key, leaf.States[i])
	}

	keys, states := groups.CuboidColumns(mask)
	cond := agg.MinSupport(minSupport)
	cells := make([]Cell, 0, len(states))
	for c, st := range states {
		codes := keys[c*w : (c+1)*w]
		if !cond.Holds(st) {
			continue
		}
		values := make([]string, len(codes))
		for i, c := range codes {
			values[i] = m.value(order[i], c)
		}
		cells = append(cells, Cell{
			Attrs:  attrs,
			Values: values,
			Count:  st.Count,
			Sum:    st.Value(agg.Sum),
			Min:    st.Value(agg.Min),
			Max:    st.Value(agg.Max),
			Avg:    st.Value(agg.Avg),
		})
	}
	return cells, nil
}
