package ingest

import (
	"errors"
	"fmt"
	"time"

	"icebergcube/internal/lattice"
	"icebergcube/internal/serve"
	"icebergcube/internal/wal"
)

// ErrRecovery reports a durable log whose records cannot rebuild a cube:
// the base record is missing or malformed, or a replayed batch violates
// an invariant the write path enforced when it was logged. CRC-valid
// records that are semantically impossible indicate a bug or tampering,
// not a crash — truncating them could silently drop acknowledged data,
// so recovery refuses instead.
var ErrRecovery = errors.New("ingest: log does not replay to a valid cube")

// Recover rebuilds a durable cube from the write-ahead log in dir. The
// log is repaired first (torn tail truncated, dead segments removed —
// see wal.Recover); the surviving records then replay through the same
// commit path the original writer ran:
//
//   - the base record materializes the leaf and its measure column,
//     publishing version 1;
//   - each commit marker folds the batches logged before it, rebuilding
//     that version exactly — every committed version is restored, so
//     AnswerAt-style time travel survives the restart;
//   - batch records after the last marker (accepted but never committed)
//     replay into the pending buffer;
//   - aux records are handed to aux in log order (nil ignores them; the
//     Materialized layer replays dictionary extensions this way).
//
// The last commit marker's resident-cuboid masks are precomputed on the
// recovered head so the serving cache is warm again. The cube resumes
// appending to the same log; budgetBytes and opt are as for New and
// wal.Create. Returns wal.ErrNoLog when dir holds no log.
func Recover(fsys wal.FS, dir string, budgetBytes int64, opt wal.Options, aux func(payload []byte) error) (*Cube, error) {
	res, lg, err := wal.Recover(fsys, dir, opt)
	if err != nil {
		return nil, err
	}
	c, err := replayRecords(res.Records, budgetBytes, aux)
	if err != nil {
		lg.Close()
		return nil, err
	}
	c.attachRecovered(lg)
	return c, nil
}

// replayRecords rebuilds a cube from a durable record sequence.
func replayRecords(recs []wal.Record, budgetBytes int64, aux func([]byte) error) (*Cube, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: empty log", ErrRecovery)
	}
	base := recs[0]
	if base.Type != wal.TypeBase {
		return nil, fmt.Errorf("%w: first record is %v, want base", ErrRecovery, base.Type)
	}
	if base.Width < 1 || base.Width > 30 || len(base.Cards) != base.Width ||
		len(base.Keys) != len(base.Meas)*base.Width {
		return nil, fmt.Errorf("%w: malformed base record (width %d, %d cards, %d codes, %d measures)",
			ErrRecovery, base.Width, len(base.Cards), len(base.Keys), len(base.Meas))
	}
	leaf := serve.LeafFromRows(base.Width, base.Keys, base.Meas, base.Cards)
	c := New(leaf, base.Keys, base.Meas, base.Cards, budgetBytes)

	var warm []uint32
	for i, rec := range recs[1:] {
		var err error
		switch rec.Type {
		case wal.TypeAppend:
			err = c.Append(rec.Keys, rec.Meas)
		case wal.TypeDelete:
			err = c.Delete(rec.Keys, rec.Meas)
		case wal.TypeCommit:
			var snap Snapshot
			snap, err = c.replayCommit()
			if err == nil && snap.Version != rec.Version {
				err = fmt.Errorf("replayed to version %d, marker says %d", snap.Version, rec.Version)
			}
			warm = rec.Resident
		case wal.TypeAux:
			if aux != nil {
				err = aux(rec.Aux)
			}
		default:
			err = fmt.Errorf("unexpected %v record", rec.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrRecovery, i+1, err)
		}
	}

	if len(warm) > 0 {
		masks := make([]lattice.Mask, 0, len(warm))
		for _, m := range warm {
			masks = append(masks, lattice.Mask(m))
		}
		c.Current().Srv.Precompute(masks)
	}
	return c, nil
}

// replayCommit runs the commit path without re-logging (the marker being
// replayed is already in the log).
func (c *Cube) replayCommit() (Snapshot, error) {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(start, false)
}
