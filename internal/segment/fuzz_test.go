package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"path"
	"sync"
	"testing"

	"icebergcube/internal/wal"
)

// fuzzTable is the pristine table every fuzz execution mutates: the
// deterministic clustered dataset flushed once, with each file's bytes
// captured so executions restore it cheaply.
type fuzzTable struct {
	cols  [][]uint32
	meas  []float64
	names []string
	files map[string][]byte
}

var (
	fuzzOnce sync.Once
	fuzzTab  fuzzTable
)

func pristine() *fuzzTable {
	fuzzOnce.Do(func() {
		cols, meas, cards := testData(1200, 99)
		fsys := wal.NewMemFS()
		// Small geometry: several blocks per segment, several segments.
		w, err := Create(fsys, "tab", Schema{Names: []string{"a", "b", "c"}, Cards: cards},
			Options{BlockRows: 128, SegmentRows: 512})
		if err != nil {
			panic(err)
		}
		if err := w.AppendCols(cols, meas); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		names, err := fsys.ReadDir("tab")
		if err != nil {
			panic(err)
		}
		files := make(map[string][]byte, len(names))
		for _, n := range names {
			b, _ := fsys.Bytes(path.Join("tab", n))
			files[n] = append([]byte(nil), b...)
		}
		fuzzTab = fuzzTable{cols: cols, meas: meas, names: names, files: files}
	})
	return &fuzzTab
}

// restore rebuilds the pristine table on a fresh MemFS.
func (ft *fuzzTable) restore() *wal.MemFS {
	fsys := wal.NewMemFS()
	fsys.MkdirAll("tab", 0o755)
	for _, n := range ft.names {
		fsys.SetBytes(path.Join("tab", n), append([]byte(nil), ft.files[n]...))
	}
	return fsys
}

// fuzzSeedScripts is the seed corpus: mutation scripts covering a no-op
// open, single bit flips in every file, torn tails, a truncated footer
// and a raw-garbage file replacement.
func fuzzSeedScripts() [][]byte {
	script := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	op := func(kind, file byte, pos uint32, arg byte) []byte {
		b := make([]byte, 7)
		b[0] = kind
		b[1] = file
		binary.LittleEndian.PutUint32(b[2:6], pos)
		b[6] = arg
		return b
	}
	var seeds [][]byte
	seeds = append(seeds, nil)                                       // pristine open
	seeds = append(seeds, op(0, 0, 40, 0x01))                        // flip a bit in the MANIFEST frame
	seeds = append(seeds, op(0, 1, 200, 0x80))                       // flip a bit in a block payload
	seeds = append(seeds, op(1, 1, 10, 0))                           // torn segment tail
	seeds = append(seeds, op(1, 0, 4, 0))                            // truncated manifest
	seeds = append(seeds, op(2, 2, 0, 0xff))                         // overwrite a byte
	seeds = append(seeds, script(op(0, 1, 64, 2), op(1, 2, 100, 0))) // compound
	garbage := append(op(3, 1, 0, 0), []byte("not a segment at all")...)
	seeds = append(seeds, garbage)
	return seeds
}

// TestGenSegmentCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzSegmentReader (run with SEGMENT_GENCORPUS=1; see
// Makefile's corpus target).
func TestGenSegmentCorpus(t *testing.T) {
	if os.Getenv("SEGMENT_GENCORPUS") == "" {
		t.Skip("set SEGMENT_GENCORPUS=1 to regenerate the seed corpus")
	}
	dir := "testdata/fuzz/FuzzSegmentReader"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedScripts() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(fmt.Sprintf("%s/seed-%02d", dir, i), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSegmentReader interprets the fuzz input as a mutation script over a
// valid segment table — bit flips, byte overwrites, truncations and
// whole-file replacement with arbitrary bytes — and requires the reader
// to hold the corruption contract: Open+Scan either fails or decodes data
// byte-identical to the original. A successful scan that returns
// different data is a silent mis-decode and fails the fuzz.
//
// Script encoding: 7-byte ops [kind, file, pos:4, arg]. kind%4 selects
// the mutation (0 = xor arg into the byte at pos, 1 = truncate to pos,
// 2 = overwrite the byte at pos with arg, 3 = replace the whole file with
// the remaining script bytes); file%len picks the target file; positions
// wrap modulo the file length.
func FuzzSegmentReader(f *testing.F) {
	for _, seed := range fuzzSeedScripts() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ft := pristine()
		fsys := ft.restore()
		for len(data) >= 7 {
			kind := data[0] % 4
			name := ft.names[int(data[1])%len(ft.names)]
			pos := int(binary.LittleEndian.Uint32(data[2:6]))
			arg := data[6]
			data = data[7:]
			full := path.Join("tab", name)
			cur, _ := fsys.Bytes(full)
			switch kind {
			case 0, 2:
				if len(cur) == 0 {
					continue
				}
				mut := append([]byte(nil), cur...)
				if kind == 0 {
					mut[pos%len(mut)] ^= arg
				} else {
					mut[pos%len(mut)] = arg
				}
				fsys.SetBytes(full, mut)
			case 1:
				fsys.SetBytes(full, append([]byte(nil), cur[:pos%(len(cur)+1)]...))
			case 3:
				// Replace the file with the rest of the script, raw.
				fsys.SetBytes(full, append([]byte(nil), data...))
				data = nil
			}
		}
		ok, identical := scanOK(fsys, ft.cols, ft.meas)
		if ok && !identical {
			t.Fatalf("corrupted table mis-decoded silently")
		}
	})
}
