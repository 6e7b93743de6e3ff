package segment

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"path"

	"icebergcube/internal/wal"
)

// colMeta is one dimension's zone map + chunk length inside a block.
type colMeta struct {
	min, max uint32
	distinct uint32
	size     uint32 // framed chunk length (frame header + payload)
}

// blockMeta is one block's footer entry: where it starts, its row count
// and per-column zone maps.
type blockMeta struct {
	off     int64
	rows    int
	cols    []colMeta
	measLen uint32 // framed measure chunk length
}

// Writer streams an encoded relation into a segment directory. Rows are
// buffered until a block fills, then the block's chunks are framed and
// appended to the current segment file; segments rotate at SegmentRows.
// Close finishes the last segment (footer + tail + fsync), writes the
// checksummed MANIFEST and syncs the directory — the same create-then-
// publish discipline the WAL uses, so a crash mid-flush leaves either no
// MANIFEST (table absent) or a fully durable one.
type Writer struct {
	fs   wal.FS
	dir  string
	sch  Schema
	opts Options

	colBuf  [][]uint32
	measBuf []float64

	f       wal.File
	segIdx  int
	off     int64
	blocks  []blockMeta
	segRows int64

	man     manifest
	scratch []byte
	seen    map[uint32]struct{}
	err     error
	closed  bool
}

// Create opens dir for writing a new table. It fails with ErrExists if
// dir already holds a MANIFEST.
func Create(fsys wal.FS, dir string, sch Schema, opts Options) (*Writer, error) {
	d := len(sch.Names)
	if d == 0 || len(sch.Cards) != d {
		return nil, fmt.Errorf("segment: schema has %d names, %d cards", d, len(sch.Cards))
	}
	for i, c := range sch.Cards {
		if c <= 0 {
			return nil, fmt.Errorf("segment: card[%d]=%d", i, c)
		}
	}
	if sch.Dicts != nil && len(sch.Dicts) != d {
		return nil, fmt.Errorf("segment: %d dicts for %d dims", len(sch.Dicts), d)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if n == ManifestName {
			return nil, ErrExists
		}
	}
	opts = opts.withDefaults()
	w := &Writer{
		fs:      fsys,
		dir:     dir,
		sch:     sch,
		opts:    opts,
		colBuf:  make([][]uint32, d),
		measBuf: make([]float64, 0, opts.BlockRows),
		seen:    make(map[uint32]struct{}),
		man: manifest{
			Version:   formatVersion,
			Names:     append([]string(nil), sch.Names...),
			Cards:     append([]int(nil), sch.Cards...),
			BlockRows: opts.BlockRows,
		},
	}
	if sch.Dicts != nil {
		w.man.Dicts = make([][]string, d)
		for i, dict := range sch.Dicts {
			if dict != nil {
				w.man.Dicts[i] = append([]string(nil), dict...)
			}
		}
	}
	for i := range w.colBuf {
		w.colBuf[i] = make([]uint32, 0, opts.BlockRows)
	}
	return w, nil
}

// Append adds one row. Codes must be < the schema cardinalities.
func (w *Writer) Append(dims []uint32, meas float64) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("segment: writer closed")
	}
	if len(dims) != len(w.sch.Names) {
		return fmt.Errorf("segment: %d dims (want %d)", len(dims), len(w.sch.Names))
	}
	for d, v := range dims {
		if int(v) >= w.sch.Cards[d] {
			return fmt.Errorf("segment: dim %d code %d >= card %d", d, v, w.sch.Cards[d])
		}
		w.colBuf[d] = append(w.colBuf[d], v)
	}
	w.measBuf = append(w.measBuf, meas)
	if len(w.measBuf) >= w.opts.BlockRows {
		return w.flushBlock()
	}
	return nil
}

// AppendCols adds a batch of rows in columnar form: cols[d][i] is row i's
// code for dimension d, meas[i] its measure.
func (w *Writer) AppendCols(cols [][]uint32, meas []float64) error {
	if len(cols) != len(w.sch.Names) {
		return fmt.Errorf("segment: %d cols (want %d)", len(cols), len(w.sch.Names))
	}
	row := make([]uint32, len(cols))
	for i := range meas {
		for d := range cols {
			row[d] = cols[d][i]
		}
		if err := w.Append(row, meas[i]); err != nil {
			return err
		}
	}
	return nil
}

// segName returns the i-th segment file name.
func segName(i int) string { return fmt.Sprintf("seg-%06d.col", i) }

// startSegment lazily opens the next segment file and writes its magic.
func (w *Writer) startSegment() error {
	name := path.Join(w.dir, segName(w.segIdx))
	f, err := w.fs.OpenFile(name, wal.FlagCreate|wal.FlagWrite|wal.FlagAppend, fs.FileMode(0o644))
	if err != nil {
		return err
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.off = headerSize
	w.blocks = w.blocks[:0]
	w.segRows = 0
	return nil
}

// flushBlock frames and writes the buffered rows as one block.
func (w *Writer) flushBlock() error {
	rows := len(w.measBuf)
	if rows == 0 {
		return nil
	}
	if w.f == nil {
		if err := w.startSegment(); err != nil {
			w.err = err
			return err
		}
	}
	bm := blockMeta{off: w.off, rows: rows, cols: make([]colMeta, len(w.colBuf))}
	buf := w.scratch[:0]
	for d, col := range w.colBuf {
		min, max := col[0], col[0]
		for k := range w.seen {
			delete(w.seen, k)
		}
		for _, v := range col {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			w.seen[v] = struct{}{}
		}
		width := packWidth(max - min)
		payload := make([]byte, 0, 5+packedLen(rows, width))
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[0:], min)
		hdr[4] = byte(width)
		payload = append(payload, hdr[:]...)
		payload = appendPacked(payload, col, min, width)
		bm.cols[d] = colMeta{min: min, max: max, distinct: uint32(len(w.seen)), size: uint32(frameSize + len(payload))}
		buf = appendFrame(buf, payload)
	}
	measPayload := make([]byte, 8*rows)
	for i, m := range w.measBuf {
		binary.LittleEndian.PutUint64(measPayload[8*i:], math.Float64bits(m))
	}
	bm.measLen = uint32(frameSize + len(measPayload))
	buf = appendFrame(buf, measPayload)

	if _, err := w.f.Write(buf); err != nil {
		w.err = err
		return err
	}
	w.scratch = buf[:0]
	w.off += int64(len(buf))
	w.blocks = append(w.blocks, bm)
	w.segRows += int64(rows)
	w.man.Rows += int64(rows)
	for d := range w.colBuf {
		w.colBuf[d] = w.colBuf[d][:0]
	}
	w.measBuf = w.measBuf[:0]
	if w.segRows >= int64(w.opts.SegmentRows) {
		return w.finishSegment()
	}
	return nil
}

// encodeFooter renders the footer payload for the current segment.
func (w *Writer) encodeFooter() []byte {
	d := len(w.sch.Names)
	buf := make([]byte, 0, 8+len(w.blocks)*(12+16*d+4))
	buf = appendU32(buf, uint32(len(w.blocks)))
	buf = appendU32(buf, uint32(d))
	for _, b := range w.blocks {
		buf = appendU64(buf, uint64(b.off))
		buf = appendU32(buf, uint32(b.rows))
		for _, c := range b.cols {
			buf = appendU32(buf, c.min)
			buf = appendU32(buf, c.max)
			buf = appendU32(buf, c.distinct)
			buf = appendU32(buf, c.size)
		}
		buf = appendU32(buf, b.measLen)
	}
	return buf
}

// finishSegment writes the footer and tail, syncs and closes the current
// segment file, and records it in the manifest.
func (w *Writer) finishSegment() error {
	if w.f == nil {
		return nil
	}
	footerOff := w.off
	buf := appendFrame(w.scratch[:0], w.encodeFooter())
	var tail [tailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(footerOff))
	copy(tail[8:], tailMagic[:])
	buf = append(buf, tail[:]...)
	if _, err := w.f.Write(buf); err != nil {
		w.err = err
		return err
	}
	w.off += int64(len(buf))
	w.scratch = buf[:0]
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		return err
	}
	w.man.Segments = append(w.man.Segments, segEntry{Name: segName(w.segIdx), Rows: w.segRows, Size: w.off})
	w.f = nil
	w.segIdx++
	return nil
}

// closeFile closes the open segment file if any, ignoring the close
// error — used on error paths where the write error is what matters.
func (w *Writer) closeFile() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// Close flushes buffered rows, finishes the open segment, publishes the
// MANIFEST and syncs the directory. The table is durable iff Close
// returns nil.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		w.closeFile()
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		w.closeFile()
		return err
	}
	if err := w.finishSegment(); err != nil {
		w.closeFile()
		return err
	}
	data, err := encodeManifest(w.man)
	if err != nil {
		w.err = err
		return err
	}
	mf, err := w.fs.OpenFile(path.Join(w.dir, ManifestName), wal.FlagCreate|wal.FlagWrite|wal.FlagAppend, fs.FileMode(0o644))
	if err != nil {
		w.err = err
		return err
	}
	if _, err := mf.Write(data); err != nil {
		mf.Close()
		w.err = err
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		w.err = err
		return err
	}
	if err := mf.Close(); err != nil {
		w.err = err
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.err = err
		return err
	}
	return nil
}

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}
