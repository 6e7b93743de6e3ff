package icebergcube

import (
	"context"
	"fmt"
	"strconv"

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
	// decode renders the code at cube position p; nil when codes are
	// their own values (synthetic data has no dictionary) and render in
	// decimal.
	decode func(p int, code uint32) string
}

func newSchema(attrs []string, noun string, decode func(p int, code uint32) string) schema {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return schema{attrs: attrs, pos: pos, noun: noun, decode: decode}
}

// value renders the code at cube position p.
func (s *schema) value(p int, code uint32) string {
	if s.decode == nil {
		return strconv.FormatUint(uint64(code), 10)
	}
	return s.decode(p, code)
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

// Columns is one answered group-by before decoding: the qualifying rows of
// the served cuboid as dictionary codes and aggregate states. Both tiers
// produce it; Answer and AnswerEach decode it into Cells, and the HTTP
// edge encodes straight from it. It aliases immutable serving state, so
// it stays valid whatever the cube does afterwards.
type Columns struct {
	// Stats reports how the answer was served; Stats.Version is the
	// snapshot it was served at.
	Stats ServeStats
	// GroupBy names the answer's attributes in cube order, the order of
	// every row's codes.
	GroupBy []string
	// MinSupport is the iceberg threshold every qualifying row reaches.
	MinSupport int64

	schema *schema
	order  []int // cube position of each column
	cards  []int // per cube position, a bound on its codes
	cub    *serve.Cuboid
}

// Width returns the number of key columns (0 for the ALL cell).
func (c *Columns) Width() int { return c.cub.Width }

// Each calls f with the codes and aggregate state of every qualifying row,
// in ascending tuple order. codes aliases the cuboid: f must neither
// modify nor retain it. A non-nil error from f stops the walk and is
// returned verbatim.
func (c *Columns) Each(f func(codes []uint32, st agg.State) error) error {
	cub, cond := c.cub, agg.MinSupport(c.MinSupport)
	for i := range cub.States {
		if !cond.Holds(cub.States[i]) {
			continue
		}
		if err := f(cub.Keys[i*cub.Width:(i+1)*cub.Width], cub.States[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len counts the qualifying rows.
func (c *Columns) Len() int {
	n := 0
	c.Each(func([]uint32, agg.State) error { n++; return nil })
	return n
}

// Card bounds the codes of key column j: every one is below it.
func (c *Columns) Card(j int) int { return c.cards[c.order[j]] }

// AppendValue appends the value code stands for in key column j to dst.
func (c *Columns) AppendValue(dst []byte, j int, code uint32) []byte {
	if c.schema.decode == nil {
		return strconv.AppendUint(dst, uint64(code), 10)
	}
	return append(dst, c.schema.decode(c.order[j], code)...)
}

// eachCell decodes the qualifying rows into Cells and hands them to yield
// in order. A non-nil error from yield stops the walk and is returned
// verbatim.
func (c *Columns) eachCell(yield func(Cell) error) error {
	return c.Each(func(codes []uint32, st agg.State) error {
		values := make([]string, len(codes))
		for j, code := range codes {
			values[j] = c.schema.value(c.order[j], code)
		}
		return yield(Cell{
			Attrs:  c.GroupBy,
			Values: values,
			Count:  st.Count,
			Sum:    st.Value(agg.Sum),
			Min:    st.Value(agg.Min),
			Max:    st.Value(agg.Max),
			Avg:    st.Value(agg.Avg),
		})
	})
}

// columns is the root package's one answer path: resolve the group-by and
// ask srv for its cuboid. version labels the snapshot srv serves (0 for an
// immutable cold table).
func (s *schema) columns(ctx context.Context, srv *serve.Server, version uint64, groupBy []string, minSupport int64) (*Columns, error) {
	if minSupport < 1 {
		minSupport = 1
	}
	order, mask, err := s.resolveGroupBy(groupBy)
	if err != nil {
		return nil, err
	}
	cub, qs, err := srv.QueryCtx(ctx, mask)
	if err != nil {
		return nil, err
	}
	return &Columns{
		Stats: ServeStats{
			ServedFrom:   s.maskAttrs(qs.ServedFrom),
			CacheHit:     qs.CacheHit,
			Coalesced:    qs.Coalesced,
			ColdScan:     qs.ColdScan,
			RowsScanned:  qs.RowsScanned,
			CellsScanned: qs.CellsScanned,
			Admitted:     qs.Admitted,
			Version:      version,
		},
		GroupBy:    s.maskAttrs(mask),
		MinSupport: minSupport,
		schema:     s,
		order:      order,
		cards:      srv.Cards(),
		cub:        cub,
	}, nil
}

// answerEach is columns decoded: it streams the answer's cells to yield.
func (s *schema) answerEach(ctx context.Context, srv *serve.Server, version uint64, groupBy []string, minSupport int64, yield func(Cell) error) (ServeStats, error) {
	c, err := s.columns(ctx, srv, version, groupBy, minSupport)
	if err != nil {
		return ServeStats{}, err
	}
	return c.Stats, c.eachCell(yield)
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
