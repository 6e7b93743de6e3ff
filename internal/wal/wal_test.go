package wal

import (
	"errors"
	"math"
	"math/rand"
	"path"
	"reflect"
	"testing"
	"time"
)

// fastOpts keeps retry sleeps out of test time.
func fastOpts() Options { return Options{Backoff: time.Nanosecond} }

func mustCreate(t *testing.T, fsys FS, dir string) *Log {
	t.Helper()
	lg, err := Create(fsys, dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

func appendRec(t *testing.T, lg *Log, rec *Record) {
	t.Helper()
	if err := lg.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func sampleRecords() []*Record {
	return []*Record{
		{Type: TypeBase, Width: 2, Cards: []int{3, 4}, Keys: []uint32{0, 1, 2, 3}, Meas: []float64{1.5, -2}},
		{Type: TypeAppend, Width: 2, Keys: []uint32{1, 1}, Meas: []float64{7}},
		{Type: TypeDelete, Width: 2, Keys: []uint32{0, 1}, Meas: []float64{1.5}},
		{Type: TypeCommit, Version: 2, Resident: []uint32{1, 3}},
		{Type: TypeAux, Aux: []byte("dict:hello")},
		{Type: TypeAppend, Width: 2, Keys: nil, Meas: nil}, // empty batch
		{Type: TypeCommit, Version: 3},
	}
}

func TestRoundTrip(t *testing.T) {
	fsys := NewMemFS()
	lg := mustCreate(t, fsys, "db/wal")
	want := sampleRecords()
	for _, rec := range want {
		appendRec(t, lg, rec)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(fsys, "db/wal")
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("clean log reported truncated: %+v", res)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("%d records, want %d", len(res.Records), len(want))
	}
	for i, rec := range res.Records {
		w := *want[i]
		// Decoding normalizes nil vs empty slices; compare field-wise.
		if rec.Type != w.Type || rec.Width != w.Width || rec.Version != w.Version {
			t.Fatalf("record %d: %+v want %+v", i, rec, w)
		}
		if !equalU32(rec.Keys, w.Keys) || !equalF64(rec.Meas, w.Meas) ||
			!equalU32(rec.Resident, w.Resident) || string(rec.Aux) != string(w.Aux) {
			t.Fatalf("record %d: %+v want %+v", i, rec, w)
		}
		if w.Cards != nil && !reflect.DeepEqual(rec.Cards, w.Cards) {
			t.Fatalf("record %d cards: %v want %v", i, rec.Cards, w.Cards)
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func TestCreateRefusesExistingLog(t *testing.T) {
	fsys := NewMemFS()
	lg := mustCreate(t, fsys, "w")
	lg.Close()
	if _, err := Create(fsys, "w", fastOpts()); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create: %v, want ErrExists", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	fsys := NewMemFS()
	opt := fastOpts()
	opt.SegmentBytes = 64 // tiny: rotate after every record or two
	lg, err := Create(fsys, "w", opt)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i := 0; i < 20; i++ {
		appendRec(t, lg, &Record{Type: TypeCommit, Version: uint64(i + 1)})
		want = append(want, uint64(i+1))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if lg.SegmentIndex() < 2 {
		t.Fatalf("no rotation happened: still segment %d", lg.SegmentIndex())
	}
	res, err := Replay(fsys, "w")
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments < 2 {
		t.Fatalf("replay saw %d segments", res.Segments)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("%d records, want %d", len(res.Records), len(want))
	}
	for i, rec := range res.Records {
		if rec.Version != want[i] {
			t.Fatalf("record %d version %d, want %d", i, rec.Version, want[i])
		}
	}
}

// TestSegmentRotationAtExactSize: a segment that has reached SegmentBytes
// exactly is full, so the next Append opens the next segment.
func TestSegmentRotationAtExactSize(t *testing.T) {
	rec := &Record{Type: TypeCommit, Version: 1}
	opt := fastOpts()
	opt.SegmentBytes = int64(len(appendFrame(nil, rec))) // one frame fills a segment
	lg, err := Create(NewMemFS(), "w", opt)
	if err != nil {
		t.Fatal(err)
	}
	first := lg.SegmentIndex()
	appendRec(t, lg, rec)
	if got := lg.SegmentIndex(); got != first {
		t.Fatalf("first record rotated to segment %d, want %d", got, first)
	}
	appendRec(t, lg, &Record{Type: TypeCommit, Version: 2})
	if got := lg.SegmentIndex(); got != first+1 {
		t.Fatalf("second record went to segment %d, want %d", got, first+1)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlipTruncates: a single flipped bit anywhere in a record's frame
// ends the log at that record — earlier records survive, later ones are
// discarded, and recovery repairs the file so the next replay is clean.
func TestBitFlipTruncates(t *testing.T) {
	base := NewMemFS()
	lg := mustCreate(t, base, "w")
	for i := 0; i < 5; i++ {
		appendRec(t, lg, &Record{Type: TypeCommit, Version: uint64(i + 1)})
	}
	lg.Close()
	clean, _ := base.Bytes(path.Join("w", segName(1)))

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		fsys := NewMemFS()
		data := append([]byte(nil), clean...)
		pos := rng.Intn(len(data))
		data[pos] ^= 1 << uint(rng.Intn(8))
		fsys.SetBytes(path.Join("w", segName(1)), data)

		res, lg2, err := Recover(fsys, "w", fastOpts())
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		for i, rec := range res.Records {
			if rec.Type != TypeCommit || rec.Version != uint64(i+1) {
				t.Fatalf("trial %d: surviving record %d corrupted: %+v", trial, i, rec)
			}
		}
		if len(res.Records) >= 5 && res.Truncated {
			t.Fatalf("trial %d: full recovery yet truncated", trial)
		}
		// The repaired log must replay clean and accept appends.
		if err := lg2.AppendSync(&Record{Type: TypeCommit, Version: uint64(len(res.Records) + 1)}); err != nil {
			t.Fatalf("trial %d: append after recover: %v", trial, err)
		}
		lg2.Close()
		res2, err := Replay(fsys, "w")
		if err != nil {
			t.Fatalf("trial %d: second replay: %v", trial, err)
		}
		if res2.Truncated || len(res2.Records) != len(res.Records)+1 {
			t.Fatalf("trial %d: repaired log not clean: %+v vs %d+1 records", trial, res2, len(res.Records))
		}
	}
}

// TestTornTailTruncates: every byte-length prefix of a valid log recovers
// to a record prefix, never to garbage.
func TestTornTailTruncates(t *testing.T) {
	base := NewMemFS()
	lg := mustCreate(t, base, "w")
	for i := 0; i < 4; i++ {
		appendRec(t, lg, &Record{Type: TypeAppend, Width: 1, Keys: []uint32{uint32(i)}, Meas: []float64{float64(i)}})
	}
	lg.Close()
	clean, _ := base.Bytes(path.Join("w", segName(1)))

	prevRecords := -1
	for cut := 0; cut <= len(clean); cut++ {
		fsys := NewMemFS()
		fsys.SetBytes(path.Join("w", segName(1)), clean[:cut])
		res, err := Replay(fsys, "w")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(res.Records) < prevRecords {
			t.Fatalf("cut %d: record count went backwards", cut)
		}
		prevRecords = len(res.Records)
		for i, rec := range res.Records {
			if rec.Keys[0] != uint32(i) {
				t.Fatalf("cut %d: record %d wrong: %+v", cut, i, rec)
			}
		}
	}
	if prevRecords != 4 {
		t.Fatalf("full log yielded %d records", prevRecords)
	}
}

// TestTransientRetry: a fault plan with transient failures (including
// torn partial writes) but no crash must not lose or corrupt anything —
// the writer repairs and retries.
func TestTransientRetry(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		mem := NewMemFS()
		fsys := NewFaultFS(mem, Plan{Seed: seed, TransientProb: 0.3, TornWrites: true})
		// 0.3^5 ≈ 0.24% per op would exhaust the default budget a few
		// times across 20 seeds × ~90 ops; give the sweep more headroom.
		opt := fastOpts()
		opt.Retries = 10
		lg, err := Create(fsys, "w", opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if err := lg.AppendSync(&Record{Type: TypeCommit, Version: uint64(i + 1)}); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
		}
		lg.Close()
		res, err := Replay(mem, "w")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Truncated || len(res.Records) != n {
			t.Fatalf("seed %d: %d records (truncated=%v), want %d", seed, len(res.Records), res.Truncated, n)
		}
		for i, rec := range res.Records {
			if rec.Version != uint64(i+1) {
				t.Fatalf("seed %d: record %d: %+v", seed, i, rec)
			}
		}
	}
}

// TestBrokenLogRefusesWrites: once retries are exhausted the log breaks
// permanently and every later append fails fast with ErrBroken.
func TestBrokenLogRefusesWrites(t *testing.T) {
	mem := NewMemFS()
	fsys := NewFaultFS(mem, Plan{Seed: 3, TransientProb: 1.0}) // every op fails
	lg := &Log{fsys: fsys, dir: "w", opt: Options{Retries: 2, Backoff: time.Nanosecond, SegmentBytes: 4 << 20}}
	if err := fsys.MkdirAll("w", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := lg.openSegment(1, true); err == nil {
		t.Fatal("openSegment succeeded under a total-failure plan")
	}
	if err := lg.Append(&Record{Type: TypeCommit, Version: 1}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on broken log: %v, want ErrBroken", err)
	}
	if err := lg.Sync(); !errors.Is(err, ErrBroken) {
		t.Fatalf("sync on broken log: %v, want ErrBroken", err)
	}
	if lg.Err() == nil {
		t.Fatal("Err() nil on broken log")
	}
}

// TestRetriesExactlyRetries: an operation that keeps failing transiently
// is retried exactly Options.Retries times — one attempt plus that many
// retries reach the filesystem — and then fails with the transient error.
func TestRetriesExactlyRetries(t *testing.T) {
	for _, retries := range []int{1, 3} {
		fsys := NewFaultFS(NewMemFS(), Plan{Seed: 5, TransientProb: 1.0}) // every op fails
		lg := &Log{fsys: fsys, dir: "w", opt: Options{Retries: retries, Backoff: time.Nanosecond, SegmentBytes: 4 << 20}}
		err := lg.openSegment(1, false)
		if !IsTransient(err) {
			t.Fatalf("retries=%d: openSegment error %v, want the transient fault", retries, err)
		}
		if ops := fsys.OpCount(); ops != 1+retries {
			t.Fatalf("retries=%d: %d attempts reached the filesystem, want %d", retries, ops, 1+retries)
		}
	}
}

// TestCrashDropsUnsynced: records appended but never synced may vanish at
// a crash; synced records never do.
func TestCrashDropsUnsynced(t *testing.T) {
	mem := NewMemFS()
	lg, err := Create(mem, "w", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, lg, &Record{Type: TypeCommit, Version: 1})
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	appendRec(t, lg, &Record{Type: TypeCommit, Version: 2}) // never synced

	mem.Crash(rand.New(rand.NewSource(1)), true)
	res, err := Replay(mem, "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 1 {
		t.Fatalf("synced record lost: %+v", res)
	}
	if res.Records[0].Version != 1 {
		t.Fatalf("first record corrupted: %+v", res.Records[0])
	}
	if len(res.Records) > 2 {
		t.Fatalf("phantom records after crash: %+v", res)
	}
}

// TestRecoverNoLog: an empty directory is ErrNoLog, not a panic or a
// silent empty cube.
func TestRecoverNoLog(t *testing.T) {
	fsys := NewMemFS()
	fsys.MkdirAll("w", 0o755)
	if _, err := Replay(fsys, "w"); !errors.Is(err, ErrNoLog) {
		t.Fatalf("replay of empty dir: %v", err)
	}
	if _, _, err := Recover(fsys, "w", fastOpts()); !errors.Is(err, ErrNoLog) {
		t.Fatalf("recover of empty dir: %v", err)
	}
	if Exists(fsys, "w") {
		t.Fatal("Exists true for empty dir")
	}
}

// TestDirFSRoundTrip exercises the real-OS implementation end to end.
func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/wal"
	lg, err := Create(DirFS{}, dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		appendRec(t, lg, rec)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	res, lg2, err := Recover(DirFS{}, dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if res.Truncated || len(res.Records) != len(want) {
		t.Fatalf("dirfs replay: %d records (truncated=%v), want %d", len(res.Records), res.Truncated, len(want))
	}
	if err := lg2.AppendSync(&Record{Type: TypeCommit, Version: 99}); err != nil {
		t.Fatal(err)
	}
	res2, err := Replay(DirFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != len(want)+1 {
		t.Fatalf("continued dirfs log: %d records", len(res2.Records))
	}
	if !Exists(DirFS{}, dir) {
		t.Fatal("Exists false for a real log")
	}
}

// TestFaultFSCrashSweep: whatever operation the crash lands on, replaying
// the post-crash disk never errors and yields a prefix of the commit
// sequence.
func TestFaultFSCrashSweep(t *testing.T) {
	// Fault-free pass to size the op space.
	mem := NewMemFS()
	probe := NewFaultFS(mem, Plan{Seed: 1})
	writeSeq := func(fsys FS) (int, error) {
		lg, err := Create(fsys, "w", fastOpts())
		if err != nil {
			return 0, err
		}
		acked := 0
		for i := 0; i < 8; i++ {
			if err := lg.AppendSync(&Record{Type: TypeCommit, Version: uint64(i + 1)}); err != nil {
				return acked, err
			}
			acked = i + 1
		}
		return acked, lg.Close()
	}
	if _, err := writeSeq(probe); err != nil {
		t.Fatal(err)
	}
	total := probe.OpCount()
	if total < 10 {
		t.Fatalf("suspiciously few ops: %d", total)
	}
	for k := 1; k <= total; k++ {
		mem := NewMemFS()
		fsys := NewFaultFS(mem, Plan{Seed: int64(100 + k), CrashAtOp: k, FlipBits: true})
		acked, _ := writeSeq(fsys)
		if !fsys.Crashed() {
			t.Fatalf("crash at op %d never fired", k)
		}
		res, _, err := Recover(mem, "w", fastOpts())
		if err != nil {
			if errors.Is(err, ErrNoLog) {
				// Crashed before the first segment was created.
				if acked != 0 {
					t.Fatalf("op %d: %d acked commits but no log", k, acked)
				}
				continue
			}
			t.Fatalf("op %d: recover: %v", k, err)
		}
		if len(res.Records) < acked {
			t.Fatalf("op %d: %d acked commits, only %d recovered", k, acked, len(res.Records))
		}
		for i, rec := range res.Records {
			if rec.Type != TypeCommit || rec.Version != uint64(i+1) {
				t.Fatalf("op %d: recovered record %d wrong: %+v", k, i, rec)
			}
		}
	}
}
