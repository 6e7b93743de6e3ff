package httpserve

import (
	"context"

	icebergcube "icebergcube"
)

// Backend is the slice of the serving stack the HTTP front-end needs:
// dimension names for request validation, an undecoded answer to encode
// from, and enough observability to report coalescing effectiveness.
// Both the warm (Materialized) and cold (ColdCube) tiers satisfy it
// through one adapter, so one front-end serves either.
type Backend interface {
	// Attrs returns the cube's dimension names in canonical order.
	Attrs() []string
	// Version returns the currently served snapshot version (0 for
	// immutable backends).
	Version() uint64
	// AnswerColumns answers the group-by as codes and aggregate states,
	// labelled with the snapshot version it was served at. Cancelling ctx
	// abandons the answer. Both response forms encode from it.
	AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*icebergcube.Columns, error)
	// AnswerEach streams every qualifying cell of the group-by, decoded, to
	// yield in ascending value-tuple order and returns the snapshot version
	// the answer was served at.
	AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error)
	// Derivations returns the cumulative count of cuboid computations the
	// backend has performed (cache hits and coalesced waits excluded).
	Derivations() int64
}

// Mutator is the optional write-side a backend may expose; the front-end
// enables POST /v1/mutate only when the configured Backend implements it.
type Mutator interface {
	Append(rows [][]string, measures []float64) error
	Delete(rows [][]string, measures []float64) error
	Commit() (icebergcube.Snapshot, error)
}

// cube is what both serving tiers expose identically.
type cube interface {
	Attrs() []string
	AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*icebergcube.Columns, error)
	AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (icebergcube.ServeStats, error)
}

// adapter is the one Backend implementation, over either tier.
type adapter struct {
	cube
	metrics func() icebergcube.CacheMetrics
	// warm is the write side and the version source; nil over a segment
	// table, which is read-only at version 0.
	warm *icebergcube.Materialized
}

// Warm wraps a materialized cube as an HTTP backend. The returned value
// also implements Mutator, so the front-end serves the durable write
// path.
func Warm(m *icebergcube.Materialized) Backend { return adapter{m, m.CacheMetrics, m} }

// Cold wraps a flushed segment table as a read-only HTTP backend: the
// adapter's write side is hidden, so New never enables /v1/mutate on it.
func Cold(c *icebergcube.ColdCube) Backend { return struct{ Backend }{adapter{c, c.Metrics, nil}} }

func (a adapter) Version() uint64 {
	if a.warm == nil {
		return 0
	}
	return a.warm.Version()
}

func (a adapter) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error) {
	st, err := a.cube.AnswerEach(ctx, groupBy, minSupport, yield)
	if err != nil {
		return 0, err
	}
	return st.Version, nil
}

func (a adapter) Derivations() int64 {
	cm := a.metrics()
	return cm.LeafAggregations + cm.AncestorAggregations
}

func (a adapter) Append(rows [][]string, measures []float64) error {
	return a.warm.Append(rows, measures)
}

func (a adapter) Delete(rows [][]string, measures []float64) error {
	return a.warm.Delete(rows, measures)
}

func (a adapter) Commit() (icebergcube.Snapshot, error) { return a.warm.Commit() }
