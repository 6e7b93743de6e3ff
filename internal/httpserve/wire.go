package httpserve

import (
	"context"
	"fmt"
	"sort"
)

// The JSON wire format of /v1/query is a public contract: the types below
// document it for clients, the append encoder in encode.go writes it, and
// golden files pin the exact bytes. Tests hold the encoder to
// encoding/json over these types. Change it only together with the golden
// files.

// QueryResponse is the non-streaming response body of GET /v1/query.
type QueryResponse struct {
	// Version is the snapshot version the answer was served at.
	Version uint64 `json:"version"`
	// GroupBy names the group-by attributes in canonical (cube dimension)
	// order — the order Values in every cell follows.
	GroupBy []string `json:"group_by"`
	// MinSupport is the iceberg threshold the cells passed.
	MinSupport int64 `json:"min_support"`
	// Cells holds every qualifying cell in ascending value-tuple order.
	Cells []WireCell `json:"cells"`
}

// WireCell is one qualifying cell on the wire.
type WireCell struct {
	// Values are the cell's dimension values in GroupBy order (absent for
	// the ALL cell).
	Values []string `json:"values,omitempty"`
	Count  int64    `json:"count"`
	Sum    float64  `json:"sum"`
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Avg    float64  `json:"avg"`
}

// StreamHeader is the first line of a streaming (NDJSON) response; each
// following line is one WireCell, and the stream ends with a
// StreamTrailer.
type StreamHeader struct {
	Version    uint64   `json:"version"`
	GroupBy    []string `json:"group_by"`
	MinSupport int64    `json:"min_support"`
	Stream     bool     `json:"stream"`
}

// StreamTrailer is the last line of a streaming response. Clients must
// treat a missing trailer as a truncated stream.
type StreamTrailer struct {
	Cells int `json:"cells"`
}

// CanonicalGroupBy validates groupBy against attrs (unknown or duplicate
// names are errors) and returns the names sorted into cube dimension
// order — the order the serving layer answers in, whatever order the
// client asked in. Two requests for the same attribute set therefore
// share one canonical key, one derivation and one encoded response.
func CanonicalGroupBy(attrs, groupBy []string) ([]string, error) {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	seen := make(map[string]bool, len(groupBy))
	out := make([]string, 0, len(groupBy))
	for _, name := range groupBy {
		if _, ok := pos[name]; !ok {
			return nil, fmt.Errorf("unknown dimension %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate group-by attribute %q", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	sort.Slice(out, func(a, b int) bool { return pos[out[a]] < pos[out[b]] })
	return out, nil
}

// EncodeQuery answers one group-by from the backend and encodes the
// canonical non-streaming response body, straight from the answer's codes.
// A flight calls it once and hands the returned buffer to every waiter.
func EncodeQuery(ctx context.Context, b Backend, groupBy []string, minSupport int64) ([]byte, error) {
	canonical, err := CanonicalGroupBy(b.Attrs(), groupBy)
	if err != nil {
		return nil, err
	}
	if minSupport < 1 {
		minSupport = 1
	}
	cols, err := b.AnswerColumns(ctx, canonical, minSupport)
	if err != nil {
		return nil, err
	}
	return newEncoder(cols).body()
}
