package httpserve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strings"
	"testing"

	icebergcube "icebergcube"
	"icebergcube/internal/wal"
)

// referenceCells answers groupBy through the decoding AnswerEach path, in
// wire form.
func referenceCells(b Backend, groupBy []string, minSupport int64) ([]string, uint64, []WireCell, error) {
	canonical, err := CanonicalGroupBy(b.Attrs(), groupBy)
	if err != nil {
		return nil, 0, nil, err
	}
	cells := []WireCell{}
	version, err := b.AnswerEach(context.Background(), canonical, max(minSupport, 1), func(c icebergcube.Cell) error {
		cells = append(cells, WireCell{Values: c.Values, Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max, Avg: c.Avg})
		return nil
	})
	return canonical, version, cells, err
}

// referenceBody is the buffered body as encoding/json writes the
// documented QueryResponse schema — the oracle EncodeQuery is held to.
func referenceBody(b Backend, groupBy []string, minSupport int64) ([]byte, error) {
	canonical, version, cells, err := referenceCells(b, groupBy, minSupport)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(QueryResponse{Version: version, GroupBy: canonical, MinSupport: max(minSupport, 1), Cells: cells})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceStream is the NDJSON body as encoding/json writes the
// StreamHeader, WireCell and StreamTrailer schema: truncated after the
// last cell that encodes, with no trailer, if one does not.
func referenceStream(b Backend, groupBy []string, minSupport int64) []byte {
	canonical, version, cells, err := referenceCells(b, groupBy, minSupport)
	if err != nil {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(StreamHeader{Version: version, GroupBy: canonical, MinSupport: max(minSupport, 1), Stream: true})
	for _, c := range cells {
		if enc.Encode(c) != nil {
			return buf.Bytes()
		}
	}
	enc.Encode(StreamTrailer{Cells: len(cells)})
	return buf.Bytes()
}

// sameWire checks EncodeQuery and the streaming handler against the
// reference encodings for every group-by of attrs.
func sameWire(t *testing.T, b Backend, attrs []string, minSupport int64) {
	t.Helper()
	s := New(Config{Backend: b, StreamFlushCells: 3})
	for mask := 0; mask < 1<<len(attrs); mask++ {
		var groupBy []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				groupBy = append(groupBy, a)
			}
		}
		want, wantErr := referenceBody(b, groupBy, minSupport)
		got, err := EncodeQuery(context.Background(), b, groupBy, minSupport)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: EncodeQuery error %v, reference error %v", groupBy, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: EncodeQuery differs from the reference:\n%q\n%q", groupBy, got, want)
		}
		q := url.Values{"group_by": {strings.Join(groupBy, ",")}, "min_support": {fmt.Sprint(minSupport)}, "stream": {"1"}}
		stream := get(t, s, "/v1/query?"+q.Encode(), nil)
		if want := referenceStream(b, groupBy, minSupport); !bytes.Equal(stream.Body.Bytes(), want) {
			t.Fatalf("%q: stream differs from the reference:\n%q\n%q", groupBy, stream.Body, want)
		}
	}
}

// TestSyntheticWire: on a cube without a dictionary, whose values are the
// codes in decimal, both encodings match the reference for every group-by.
func TestSyntheticWire(t *testing.T) {
	names := []string{"a", "b", "c"}
	ds := icebergcube.Synthetic(names, []int{300, 40, 3}, []float64{1.5, 1, 1}, 2000, 7)
	m, err := icebergcube.Materialize(ds, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, minSupport := range []int64{1, 3} {
		sameWire(t, Warm(m), names, minSupport)
	}
}

// float64s packs fs as FuzzWireEncoding's measure bytes.
func float64s(fs ...float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// FuzzWireEncoding holds the append encoder to encoding/json, byte for
// byte, buffered and streamed, on both tiers: values is a '|'-separated
// pool of dimension values (any bytes), measures 8 bytes a row (any
// float64 bits). Where encoding/json fails — NaN or ±Inf in a qualifying
// cell — the encoder must fail with the same error and truncate the
// stream at the same line.
func FuzzWireEncoding(f *testing.F) {
	f.Add("a|b|c", float64s(math.Copysign(0, -1), 0.1, 1e-7, 1e15-1, 1e15, 1e15+1, 1<<53-1, 1<<53, 1<<53+1, 1e21, -1e21), uint8(0))
	f.Add("<>&|\"|\\|\x00\x01\b\f\x1f\x7f|\u2028x\u2029|\xff\xc3(|ok", float64s(1, 2.5, 3, 4e-300, 5, 6, 7, 8), uint8(0))
	f.Add("x|y", float64s(1, math.NaN(), 2), uint8(0))
	f.Add("x|y|z", float64s(1, 2, 3, math.Inf(1), 4), uint8(1))
	f.Add("x", float64s(math.Inf(-1), 1), uint8(0))
	f.Fuzz(func(t *testing.T, values string, measures []byte, minSupport uint8) {
		n := min(len(measures)/8, 64)
		if n == 0 {
			return
		}
		pool := strings.Split(values, "|")
		rows := make([][]string, n)
		meas := make([]float64, n)
		for i := range rows {
			rows[i] = []string{pool[i%len(pool)], pool[(i/2+i%3)%len(pool)]}
			meas[i] = math.Float64frombits(binary.LittleEndian.Uint64(measures[8*i:]))
		}
		names := []string{"d0", "d<1>\u2028x"}
		ds, err := icebergcube.FromRows(names, rows, meas)
		if err != nil {
			t.Fatal(err)
		}
		m, err := icebergcube.Materialize(ds, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		fsys := wal.NewMemFS()
		if err := m.FlushSegmentsFS(fsys, "cube"); err != nil {
			t.Fatal(err)
		}
		cold, err := icebergcube.OpenColdFS(fsys, "cube", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{Warm(m), Cold(cold)} {
			sameWire(t, b, names, int64(minSupport%4)+1)
		}
	})
}

// TestEncodeQueryAllocsFlat: a hit's allocation count does not grow with
// the answer. A 10-cell and a 10,000-cell body cost the same, ±2, on a
// dictionary cube and on a synthetic one.
func TestEncodeQueryAllocsFlat(t *testing.T) {
	var rows [][]string
	var meas []float64
	for i := 0; i < 10000; i++ {
		rows = append(rows, []string{fmt.Sprint("a", i/100), fmt.Sprint("b", i%100), fmt.Sprint("c", i%10)})
		meas = append(meas, float64(i%7)+0.25)
	}
	dict, err := icebergcube.FromRows([]string{"a", "b", "c"}, rows, meas)
	if err != nil {
		t.Fatal(err)
	}
	synthetic := icebergcube.Synthetic([]string{"a", "b", "c"}, []int{100, 100, 10}, []float64{1, 1, 1}, 200000, 1)
	for _, ds := range []*icebergcube.Dataset{dict, synthetic} {
		m, err := icebergcube.Materialize(ds, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := Warm(m)
		allocs := func(groupBy []string, cells int) float64 {
			body, err := EncodeQuery(context.Background(), b, groupBy, 1) // derives, then it is a hit
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(body, []byte(`"count":`)); n != cells {
				t.Fatalf("%v: %d cells, want %d", groupBy, n, cells)
			}
			return testing.AllocsPerRun(10, func() {
				if _, err := EncodeQuery(context.Background(), b, groupBy, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs([]string{"c"}, 10), allocs([]string{"a", "b"}, 10000)
		if math.Abs(large-small) > 2 {
			t.Fatalf("a 10-cell hit allocates %v times, a 10,000-cell hit %v", small, large)
		}
	}
}

// weatherTuples is the paper's weather relation size, the cube the
// end-to-end benchmark serves.
const weatherTuples = 176631

// BenchmarkEncodeQuery is the wire rung of the hit path: EncodeQuery on a
// cache hit of the finest cuboid (the six serving dimensions of the
// weather cube, min_support 2), reported per cell.
func BenchmarkEncodeQuery(b *testing.B) {
	ds := icebergcube.SyntheticWeather(weatherTuples, 2001)
	dims := ds.PickDimsByCardinalityProduct(6, 7)
	m, err := icebergcube.Materialize(ds, dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	back := Warm(m)
	ctx := context.Background()
	cols, err := back.AnswerColumns(ctx, dims, 2)
	if err != nil || !cols.Stats.CacheHit {
		b.Fatalf("the finest cuboid is not a hit: %v %+v", err, cols)
	}
	body, err := EncodeQuery(ctx, back, dims, 2)
	if err != nil {
		b.Fatal(err)
	}
	cells := bytes.Count(body, []byte(`"count":`))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeQuery(ctx, back, dims, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}
