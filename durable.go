package icebergcube

import (
	"encoding/binary"
	"fmt"

	"icebergcube/internal/ingest"
	"icebergcube/internal/wal"
)

// ErrDegraded reports that a durable cube's write-ahead log has failed
// permanently: the cube is read-only — every committed snapshot keeps
// serving queries and time travel — but Append/Delete/Commit are
// refused, because a write that cannot be made durable must not be
// acknowledged. Matchable with errors.Is.
var ErrDegraded = ingest.ErrDegraded

// MaterializeDurable is Materialize plus a write-ahead log rooted at
// walDir (created; it must not already hold a log — restart with
// RecoverMaterialized or OpenDurable instead). The materialized base
// state is written and fsynced before the call returns; from then on
// every Append/Delete batch is logged and every Commit is a durability
// barrier: once Commit returns nil, that snapshot — and time travel to
// every snapshot before it — survives a crash.
func MaterializeDurable(ds *Dataset, dims []string, workers int, walDir string) (*Materialized, error) {
	return materializeDurable(ds, dims, workers, wal.DirFS{}, walDir, wal.Options{})
}

func materializeDurable(ds *Dataset, dims []string, workers int, fsys wal.FS, dir string, opt wal.Options) (*Materialized, error) {
	m, err := Materialize(ds, dims, workers)
	if err != nil {
		return nil, err
	}
	lg, err := wal.Create(fsys, dir, opt)
	if err != nil {
		return nil, err
	}
	if err := m.cube.AttachWAL(lg); err != nil {
		lg.Close()
		return nil, err
	}
	return m, nil
}

// RecoverMaterialized rebuilds a durable cube from the write-ahead log in
// walDir after a crash or restart, skipping the precomputation entirely:
// the leaf, every committed snapshot (time travel included), the
// dictionary extensions of appended values, any accepted-but-uncommitted
// batch, and the serving cache's warm set all come back from the log.
// ds and dims must be the data set and dimension selection the cube was
// originally materialized from. The cube resumes appending to the same
// log.
func RecoverMaterialized(ds *Dataset, dims []string, walDir string) (*Materialized, error) {
	return recoverMaterialized(ds, dims, wal.DirFS{}, walDir, wal.Options{})
}

func recoverMaterialized(ds *Dataset, dims []string, fsys wal.FS, dir string, opt wal.Options) (*Materialized, error) {
	idx, err := ds.resolveDims(dims)
	if err != nil {
		return nil, err
	}
	m := newMaterialized(ds, idx)
	cube, err := ingest.Recover(fsys, dir, 0, opt, func(payload []byte) error {
		p, code, val, err := decodeDictExt(payload)
		if err != nil {
			return err
		}
		if p < 0 || p >= len(m.ext) {
			return fmt.Errorf("icebergcube: dictionary extension for position %d of %d", p, len(m.ext))
		}
		e := &m.ext[p]
		if want := uint32(e.base + len(e.values)); code != want {
			return fmt.Errorf("icebergcube: dictionary extension out of order: code %d, want %d", code, want)
		}
		e.codes[val] = code
		e.values = append(e.values, val)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if got := cube.Current().Srv.Leaf().Width; got != len(idx) {
		cube.Close()
		return nil, fmt.Errorf("icebergcube: log holds a %d-dimension cube but %d dimensions were selected", got, len(idx))
	}
	m.cube = cube
	return m, nil
}

// OpenDurable is the restart-friendly entry point: it recovers from
// walDir when a log is already there, and materializes a fresh durable
// cube otherwise. The boolean reports which path ran.
func OpenDurable(ds *Dataset, dims []string, workers int, walDir string) (*Materialized, bool, error) {
	if wal.Exists(wal.DirFS{}, walDir) {
		m, err := RecoverMaterialized(ds, dims, walDir)
		return m, true, err
	}
	m, err := MaterializeDurable(ds, dims, workers, walDir)
	return m, false, err
}

// Close stops the adaptive policy's background machinery (dropping any
// queued materializations) and releases the write-ahead log, if one is
// attached (syncing any logged-but-unsynced batch records first). The
// cube stays queryable; further writes on a durable cube fail. Close on
// a non-durable, LRU-policy cube is a no-op.
func (m *Materialized) Close() error {
	m.polMu.Lock()
	m.releaseBackgroundLocked()
	m.polMu.Unlock()
	return m.cube.Close()
}

// Degraded returns the write-ahead-log failure that made the cube
// read-only, or nil. See ErrDegraded.
func (m *Materialized) Degraded() error { return m.cube.Degraded() }

// Dictionary extensions ride the write-ahead log as aux records so
// recovery can decode appended values: u32 position, u32 code, u32
// value length, value bytes (little-endian).

func encodeDictExt(pos int, code uint32, val string) []byte {
	b := make([]byte, 12, 12+len(val))
	binary.LittleEndian.PutUint32(b[0:], uint32(pos))
	binary.LittleEndian.PutUint32(b[4:], code)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(val)))
	return append(b, val...)
}

func decodeDictExt(p []byte) (pos int, code uint32, val string, err error) {
	if len(p) < 12 {
		return 0, 0, "", fmt.Errorf("icebergcube: dictionary-extension record of %d bytes", len(p))
	}
	n := binary.LittleEndian.Uint32(p[8:])
	if int(n) != len(p)-12 {
		return 0, 0, "", fmt.Errorf("icebergcube: dictionary-extension length %d in %d-byte record", n, len(p))
	}
	return int(binary.LittleEndian.Uint32(p[0:])), binary.LittleEndian.Uint32(p[4:]), string(p[12:]), nil
}
