package icebergcube

import (
	"sort"

	"icebergcube/internal/agg"
	"icebergcube/internal/results"
)

// answerLeafRescan is the pre-serving-layer Answer: rescan every cell of
// the current snapshot's leaf through a string-keyed map, whatever the
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
	groups := make(map[string]agg.State)
	for i := 0; i < leaf.Rows(); i++ {
		key := leaf.Row(i)
		sub := make([]byte, 4*len(order))
		for j, p := range order {
			v := key[p]
			sub[4*j] = byte(v)
			sub[4*j+1] = byte(v >> 8)
			sub[4*j+2] = byte(v >> 16)
			sub[4*j+3] = byte(v >> 24)
		}
		g, ok := groups[string(sub)]
		if !ok {
			g = agg.NewState()
		}
		g.Merge(leaf.States[i])
		groups[string(sub)] = g
	}

	keys := make([][]uint32, 0, len(groups))
	for k := range groups {
		keys = append(keys, results.DecodeKey(k))
	}
	sort.Slice(keys, func(a, b int) bool { return results.CompareTuples(keys[a], keys[b]) < 0 })
	cond := agg.MinSupport(minSupport)
	cells := make([]Cell, 0, len(keys))
	for _, codes := range keys {
		buf := make([]byte, 4*len(codes))
		for i, v := range codes {
			buf[4*i] = byte(v)
			buf[4*i+1] = byte(v >> 8)
			buf[4*i+2] = byte(v >> 16)
			buf[4*i+3] = byte(v >> 24)
		}
		st := groups[string(buf)]
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
