package httpserve

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	icebergcube "icebergcube"
	"icebergcube/internal/agg"
)

// encoder appends the /v1/query wire format straight from an answer's
// codes and aggregate states: no Cell, no WireCell, no reflection. Its
// bytes are encoding/json's for QueryResponse, WireCell, StreamHeader and
// StreamTrailer — the golden files and FuzzWireEncoding hold it to that.
// Each distinct value of a key column is decoded and escaped once per
// response; every later cell copies its literal.
type encoder struct {
	cols *icebergcube.Columns
	rows int // qualifying rows
	buf  []byte
	// lits locates each key column's literals already written. They are
	// spans of buf, except in a stream, which empties buf at every flush
	// and so keeps its literals in own.
	lits   []litCache
	stream bool
	own    []byte
	raw    []byte // one decoded value, before escaping
}

type span struct{ start, end int }

// litCache maps one key column's codes to their literals' spans: a dense
// table when the column's codes are few next to the answer's rows, a map
// otherwise. A zero span is absent: a literal is never empty.
type litCache struct {
	dense  []span
	sparse map[uint32]span
}

func (c *litCache) get(code uint32) (span, bool) {
	if c.sparse == nil {
		return c.dense[code], c.dense[code].end != 0
	}
	sp, ok := c.sparse[code]
	return sp, ok
}

func (c *litCache) put(code uint32, sp span) {
	if c.sparse == nil {
		c.dense[code] = sp
		return
	}
	c.sparse[code] = sp
}

// cellRoom is the spare capacity guaranteed before each cell, more than
// its keys and numbers take, so the buffer grows through grow, which at
// least doubles it, rather than in append's smaller steps.
const cellRoom = 512

// newEncoder sizes an encoder for cols: a dense literal table for every
// key column whose code range is not much wider than the answer.
func newEncoder(cols *icebergcube.Columns) *encoder {
	e := &encoder{cols: cols, rows: cols.Len(), lits: make([]litCache, cols.Width()), raw: make([]byte, 0, 64)}
	dense := 4*e.rows + 1024
	total := 0
	for j := range e.lits {
		if n := cols.Card(j); n <= dense {
			total += n
		}
	}
	slab := make([]span, total)
	for j := range e.lits {
		if n := cols.Card(j); n <= dense {
			e.lits[j].dense, slab = slab[:n:n], slab[n:]
		} else {
			e.lits[j].sparse = map[uint32]span{}
		}
	}
	e.grow(cellRoom)
	return e
}

// grow makes room for n more bytes, at least doubling the buffer when it
// has to move.
func (e *encoder) grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	b := make([]byte, len(e.buf), max(2*cap(e.buf), len(e.buf)+n))
	copy(b, e.buf)
	e.buf = b
}

// head appends the members QueryResponse and StreamHeader share:
// {"version":…,"group_by":[…],"min_support":…
func (e *encoder) head() {
	b := append(e.buf, `{"version":`...)
	b = strconv.AppendUint(b, e.cols.Stats.Version, 10)
	b = append(b, `,"group_by":[`...)
	for i, a := range e.cols.GroupBy {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, a)
	}
	b = append(b, `],"min_support":`...)
	e.buf = strconv.AppendInt(b, e.cols.MinSupport, 10)
}

// floatKeys precede WireCell's float members, in field order.
var floatKeys = [4]string{`,"sum":`, `,"min":`, `,"max":`, `,"avg":`}

// cell appends one WireCell object. On error buf is left as it was.
func (e *encoder) cell(codes []uint32, st agg.State) error {
	e.grow(cellRoom)
	b := e.buf
	if len(codes) == 0 {
		b = append(b, `{"count":`...)
	} else {
		b = append(b, `{"values":[`...)
		for j, code := range codes {
			if j > 0 {
				b = append(b, ',')
			}
			b = e.value(b, j, code)
		}
		b = append(b, `],"count":`...)
	}
	b = strconv.AppendInt(b, st.Count, 10)
	var err error
	for i, f := range [4]float64{st.Sum, st.Min, st.Max, st.Value(agg.Avg)} {
		b = append(b, floatKeys[i]...)
		if b, err = appendFloat(b, f); err != nil {
			return err
		}
	}
	e.buf = append(b, '}')
	return nil
}

// value appends the literal of code in key column j to b, which extends
// buf, decoding and escaping it only the first time the response needs it.
func (e *encoder) value(b []byte, j int, code uint32) []byte {
	lits := &e.lits[j]
	if sp, ok := lits.get(code); ok {
		if e.stream {
			return append(b, e.own[sp.start:sp.end]...)
		}
		return append(b, b[sp.start:sp.end]...)
	}
	e.raw = e.cols.AppendValue(e.raw[:0], j, code)
	start := len(b)
	b = appendString(b, e.raw)
	sp := span{start, len(b)}
	if e.stream {
		sp = span{len(e.own), len(e.own) + len(b) - start}
		e.own = append(e.own, b[start:]...)
	}
	lits.put(code, sp)
	return b
}

// body returns the buffered response: QueryResponse as json.Encoder
// writes it, newline included.
func (e *encoder) body() ([]byte, error) {
	e.head()
	e.buf = append(e.buf, `,"cells":[`...)
	first := true
	err := e.cols.Each(func(codes []uint32, st agg.State) error {
		if !first {
			e.buf = append(e.buf, ',')
			return e.cell(codes, st)
		}
		first = false
		start := len(e.buf)
		if err := e.cell(codes, st); err != nil {
			return err
		}
		// Presize for the rest from the first cell, with a quarter spare.
		n := len(e.buf) - start + 1
		e.grow((e.rows - 1) * (n + n/4))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(e.buf, "]}\n"...), nil
}

// ndjson writes the streaming response to w: a StreamHeader line, one
// WireCell line per cell, a StreamTrailer line, written and flushed every
// flushN cells. A cell that cannot encode, or a failed write, ends the
// stream after the last complete line, with no trailer — the only honest
// signal once the status line may be out.
func (e *encoder) ndjson(w io.Writer, flushN int, flush func()) {
	e.stream = true
	e.head()
	e.buf = append(e.buf, ",\"stream\":true}\n"...)
	cells := 0
	err := e.cols.Each(func(codes []uint32, st agg.State) error {
		if err := e.cell(codes, st); err != nil {
			return err
		}
		e.buf = append(e.buf, '\n')
		if cells++; cells%flushN != 0 {
			return nil
		}
		_, err := w.Write(e.buf)
		e.buf = e.buf[:0]
		flush()
		return err
	})
	if err == nil {
		e.buf = append(e.buf, `{"cells":`...)
		e.buf = strconv.AppendInt(e.buf, int64(cells), 10)
		e.buf = append(e.buf, "}\n"...)
	}
	w.Write(e.buf) // the response ends here; a failed write has no one to tell
	flush()
}

// appendFloat appends f as encoding/json encodes a float64. Integral
// values below 1e15 in magnitude print as integers, which is what its
// shortest 'f' formatting produces for them; negative zero takes the
// general path to keep its sign. NaN and ±Inf are json's
// UnsupportedValueError, message included.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if f > -1e15 && f < 1e15 && float64(int64(f)) == f && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Shorten a two-digit negative exponent: e-07 to e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on: <, > and & as \u00XX, U+2028 and U+2029 escaped, and
// each invalid UTF-8 byte replaced by \ufffd.
func appendString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
