package results

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/lattice"
)

// model is the reference the fuzz target checks a Set against: one plain
// map per cuboid, keyed by the printed code tuple, merging a repeated
// cell's states in write order — the order the Set's stable seal keeps,
// so every state must match bit for bit.
type model map[lattice.Mask]map[string]modelCell

type modelCell struct {
	key []uint32
	st  agg.State
}

func (md model) write(m lattice.Mask, key []uint32, st agg.State) {
	if md[m] == nil {
		md[m] = make(map[string]modelCell)
	}
	k := fmt.Sprint(key)
	if c, ok := md[m][k]; ok {
		c.st.Merge(st)
		md[m][k] = c
		return
	}
	md[m][k] = modelCell{key: slices.Clone(key), st: st}
}

func (md model) cells() int {
	n := 0
	for _, byKey := range md {
		n += len(byKey)
	}
	return n
}

// fuzzMasks are the cuboids the fuzz target writes: widths 0 to 3.
var fuzzMasks = []lattice.Mask{0, 1, 2, 5, 6, 7}

// fuzzCode turns two input bytes into a code: tiny codes (so tuples
// repeat), one-byte codes and codes that need two and three radix passes
// (256 and above, the range a byte-wise key order gets wrong).
func fuzzCode(b, mode byte) uint32 {
	v := uint32(b)
	switch mode % 4 {
	case 0:
		return v & 3
	case 2:
		return v<<8 | v
	case 3:
		return v << 16
	}
	return v
}

// FuzzResultSet drives random writes (duplicate keys, codes of 256 and
// above, every width from 0 to 3) interleaved with reads — each read
// seals, so later writes land on sealed cuboids — into a Set and into the
// map model, and checks every accessor against the model: NumCells,
// NumCuboids, Masks, CuboidColumns (tuple order, distinct rows, exact
// states), Get, Each, Filter, Diff and an Encode→DecodeInto round trip.
func FuzzResultSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 10, 0, 1, 0, 0, 20, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSet()
		md := make(model)
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%8 == 7 {
				checkSet(t, s, md) // a read between writes seals every cuboid
				continue
			}
			m := fuzzMasks[int(op)%len(fuzzMasks)]
			w := m.Count()
			if len(data) < 2*w+1 {
				break
			}
			key := make([]uint32, w)
			for i := range key {
				key[i] = fuzzCode(data[2*i], data[2*i+1])
			}
			st := agg.NewState()
			st.Add(float64(int8(data[2*w])) / 8)
			if op&0x80 != 0 {
				st.Add(float64(op) / 3)
			}
			data = data[2*w+1:]
			s.WriteCell(m, key, st)
			md.write(m, key, st)
			if op&0x40 != 0 {
				s.CuboidColumns(m) // seals this cuboid alone
			}
		}
		checkSet(t, s, md)

		buf := s.Encode()
		if !bytes.Equal(buf, s.Encode()) {
			t.Fatal("Encode is not deterministic")
		}
		back := NewSet()
		if err := back.DecodeInto(buf); err != nil {
			t.Fatal(err)
		}
		checkSet(t, back, md)
	})
}

// checkSet compares every accessor of s with the model.
func checkSet(t *testing.T, s *Set, md model) {
	t.Helper()
	if got, want := s.NumCells(), md.cells(); got != want {
		t.Fatalf("NumCells = %d, model has %d", got, want)
	}
	if got, want := s.NumCuboids(), len(md); got != want {
		t.Fatalf("NumCuboids = %d, model has %d", got, want)
	}
	var masks []lattice.Mask
	for m := range md {
		masks = append(masks, m)
	}
	slices.Sort(masks)
	if got := s.Masks(); !slices.Equal(got, masks) {
		t.Fatalf("Masks = %v, model has %v", got, masks)
	}

	type cell struct {
		m   lattice.Mask
		key []uint32
		st  agg.State
	}
	var want []cell // every model cell, masks ascending, tuples ascending
	for _, m := range masks {
		var cs []cell
		for _, c := range md[m] {
			cs = append(cs, cell{m, c.key, c.st})
		}
		slices.SortFunc(cs, func(a, b cell) int { return slices.Compare(a.key, b.key) })
		want = append(want, cs...)
	}

	var each []cell
	s.Each(func(m lattice.Mask, key []uint32, st agg.State) {
		each = append(each, cell{m, slices.Clone(key), st})
	})
	if len(each) != len(want) {
		t.Fatalf("Each visits %d cells, model has %d", len(each), len(want))
	}
	i := 0
	for _, m := range masks {
		keys, states := s.CuboidColumns(m)
		w := m.Count()
		if len(keys) != len(states)*w || len(states) != len(md[m]) {
			t.Fatalf("cuboid %b: %d codes and %d states, model has %d cells", m, len(keys), len(states), len(md[m]))
		}
		for r, st := range states {
			key := keys[r*w : (r+1)*w]
			wc := want[i]
			if !slices.Equal(key, wc.key) || st != wc.st {
				t.Fatalf("cuboid %b row %d: %v %+v, model %v %+v", m, r, key, st, wc.key, wc.st)
			}
			if e := each[i]; e.m != m || !slices.Equal(e.key, wc.key) || e.st != wc.st {
				t.Fatalf("Each cell %d: %b %v %+v, model %b %v %+v", i, e.m, e.key, e.st, m, wc.key, wc.st)
			}
			if got, ok := s.Get(m, key); !ok || got != wc.st {
				t.Fatalf("Get(%b, %v) = %+v, %v; model %+v", m, key, got, ok, wc.st)
			}
			i++
		}
		if w > 0 {
			absent := make([]uint32, w)
			absent[0] = 1 << 30 // above every code fuzzCode makes
			if _, ok := s.Get(m, absent); ok {
				t.Fatalf("Get(%b, %v) found a cell never written", m, absent)
			}
		}
	}

	cond := agg.MinSupport(2)
	f := s.Filter(cond)
	kept := 0
	for _, c := range want {
		got, ok := f.Get(c.m, c.key)
		if ok != cond.Holds(c.st) || (ok && got != c.st) {
			t.Fatalf("Filter: cell %b %v kept=%v, model %+v", c.m, c.key, ok, c.st)
		}
		if ok {
			kept++
		}
	}
	if f.NumCells() != kept {
		t.Fatalf("Filter kept %d cells, want %d", f.NumCells(), kept)
	}

	ref := NewSet() // the model's cells, one write each
	for _, c := range want {
		ref.WriteCell(c.m, c.key, c.st)
	}
	if d := s.Diff(ref); d != "" {
		t.Fatalf("Diff against the model: %s", d)
	}
	if d := ref.Diff(s); d != "" {
		t.Fatalf("Diff of the model against the set: %s", d)
	}
	ref.WriteCell(7, []uint32{1 << 30, 0, 0}, agg.NewState())
	if d := s.Diff(ref); !strings.Contains(d, "only in other") {
		t.Fatalf("Diff missed a cell only in the other set: %q", d)
	}
}
