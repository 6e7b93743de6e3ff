package icebergcube

import (
	"context"
	"fmt"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
	"icebergcube/internal/serve"
)

// schema is what turns cuboids of dictionary codes into Cells: a cube's
// dimension names in cube order plus the decoder for its codes. Result,
// Materialized and ColdCube each embed one, so group-by resolution and
// cell decoding exist once.
type schema struct {
	attrs []string
	pos   map[string]int // attribute name → cube position
	noun  string         // what errors call a dimension of this cube
	// decode renders the code at cube position p.
	decode func(p int, code uint32) string
}

func newSchema(attrs []string, noun string, decode func(p int, code uint32) string) schema {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return schema{attrs: attrs, pos: pos, noun: noun, decode: decode}
}

// resolveGroupBy maps groupBy names to ascending cube positions and the
// cuboid mask, rejecting unknown and duplicate attributes.
func (s *schema) resolveGroupBy(groupBy []string) ([]int, lattice.Mask, error) {
	var mask lattice.Mask
	for _, name := range groupBy {
		p, ok := s.pos[name]
		if !ok {
			return nil, 0, fmt.Errorf("icebergcube: %q is not a %s", name, s.noun)
		}
		if mask.Has(p) {
			return nil, 0, fmt.Errorf("icebergcube: duplicate group-by attribute %q", name)
		}
		mask |= 1 << uint(p)
	}
	return mask.Dims(), mask, nil
}

// maskAttrs renders a cuboid mask as attribute names.
func (s *schema) maskAttrs(mask lattice.Mask) []string {
	dims := mask.Dims()
	names := make([]string, len(dims))
	for i, p := range dims {
		names[i] = s.attrs[p]
	}
	return names
}

// eachCell decodes the cells of cub, a cuboid over this schema, whose count
// reaches minSupport and hands them to yield in the cuboid's ascending
// tuple order. A non-nil error from yield stops the walk and is returned
// verbatim.
func (s *schema) eachCell(cub *serve.Cuboid, minSupport int64, yield func(Cell) error) error {
	order := cub.Mask.Dims()
	attrs := s.maskAttrs(cub.Mask)
	cond := agg.MinSupport(minSupport)
	for i := 0; i < cub.Rows(); i++ {
		st := cub.States[i]
		if !cond.Holds(st) {
			continue
		}
		values := make([]string, len(order))
		if cub.Width > 0 {
			for j, code := range cub.Row(i) {
				values[j] = s.decode(order[j], code)
			}
		}
		cell := Cell{
			Attrs:  attrs,
			Values: values,
			Count:  st.Count,
			Sum:    st.Value(agg.Sum),
			Min:    st.Value(agg.Min),
			Max:    st.Value(agg.Max),
			Avg:    st.Value(agg.Avg),
		}
		if err := yield(cell); err != nil {
			return err
		}
	}
	return nil
}

// answerEach is the root package's one answer path: resolve the group-by,
// ask srv for the cuboid, stream its qualifying cells to yield. version
// labels the snapshot srv serves (0 for an immutable cold table).
func (s *schema) answerEach(ctx context.Context, srv *serve.Server, version uint64, groupBy []string, minSupport int64, yield func(Cell) error) (ServeStats, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	_, mask, err := s.resolveGroupBy(groupBy)
	if err != nil {
		return ServeStats{}, err
	}
	cub, qs, err := srv.QueryCtx(ctx, mask)
	if err != nil {
		return ServeStats{}, err
	}
	stats := ServeStats{
		ServedFrom:   s.maskAttrs(qs.ServedFrom),
		CacheHit:     qs.CacheHit,
		Coalesced:    qs.Coalesced,
		ColdScan:     qs.ColdScan,
		RowsScanned:  qs.RowsScanned,
		CellsScanned: qs.CellsScanned,
		Admitted:     qs.Admitted,
		Version:      version,
	}
	return stats, s.eachCell(cub, minSupport, yield)
}

// answer is answerEach collected into a slice (never nil on success).
func (s *schema) answer(srv *serve.Server, version uint64, groupBy []string, minSupport int64) ([]Cell, ServeStats, error) {
	cells := []Cell{}
	stats, err := s.answerEach(context.Background(), srv, version, groupBy, minSupport, func(c Cell) error {
		cells = append(cells, c)
		return nil
	})
	if err != nil {
		return nil, ServeStats{}, err
	}
	return cells, stats, nil
}
