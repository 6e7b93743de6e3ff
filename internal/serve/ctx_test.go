package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"icebergcube/internal/lattice"
)

// TestQueryCtxCancelledAtEntry: a context cancelled before the call never
// reaches the cache or the aggregation kernel and is counted.
func TestQueryCtxCancelledAtEntry(t *testing.T) {
	leaf, cards := buildLeaf([]int{4, 3, 5}, 200, 1)
	s := NewServer(leaf, cards, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.QueryCtx(ctx, lattice.Mask(0b011)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := s.Stats()
	if m.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", m.Canceled)
	}
	if m.Queries != 0 || m.Computes != 0 {
		t.Fatalf("cancelled query did work: %+v", m)
	}
	// The same query with a live context still answers correctly.
	cub, _, err := s.QueryCtx(context.Background(), lattice.Mask(0b011))
	if err != nil {
		t.Fatal(err)
	}
	checkCuboid(t, leaf, lattice.Mask(0b011), cub)
}

// TestQueryCtxWaiterAbandonsFlight: a coalesced waiter whose context is
// cancelled returns immediately; the flight it was waiting on completes
// and serves later queries from the cache.
func TestQueryCtxWaiterAbandonsFlight(t *testing.T) {
	leaf, cards := buildLeaf([]int{6, 5, 4}, 400, 2)
	s := NewServer(leaf, cards, 0)
	q := lattice.Mask(0b101)

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.testBeforeAdmit = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.Query(q)
		leaderDone <- err
	}()
	<-entered // the leader is mid-computation, holding the flight open

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := s.QueryCtx(ctx, q)
		waiterDone <- err
	}()
	// Cancel the waiter while the leader is still blocked. The waiter must
	// return without waiting for the flight.
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	s.testBeforeAdmit = nil

	// The flight completed despite the abandoned waiter: the cuboid is
	// resident now.
	_, qs, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatalf("expected cache hit after completed flight, got %+v", qs)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled = %d, want 1", got)
	}
}

// memColdSource streams a fixed row set in small chunks and counts the
// chunks yielded, so tests can observe a scan aborting early.
type memColdSource struct {
	width   int
	keys    [][]uint32 // row-major
	meas    []float64
	chunk   int
	onChunk func(n int) // called after the nth chunk is yielded (1-based)

	mu      sync.Mutex
	yielded int
}

func (m *memColdSource) Width() int { return m.width }
func (m *memColdSource) Rows() int  { return len(m.meas) }

func (m *memColdSource) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	for lo := 0; lo < len(m.meas); lo += m.chunk {
		hi := lo + m.chunk
		if hi > len(m.meas) {
			hi = len(m.meas)
		}
		cols := make([][]uint32, len(dims))
		for i, d := range dims {
			col := make([]uint32, 0, hi-lo)
			for r := lo; r < hi; r++ {
				col = append(col, m.keys[r][d])
			}
			cols[i] = col
		}
		m.mu.Lock()
		m.yielded++
		n := m.yielded
		m.mu.Unlock()
		if m.onChunk != nil {
			m.onChunk(n)
		}
		if err := yield(cols, m.meas[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func (m *memColdSource) chunksYielded() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.yielded
}

// TestColdQueryCtxAbortsScan: cancelling mid-scan stops the cold source
// stream well before the table end, surfaces the context error, and does
// not poison later queries.
func TestColdQueryCtxAbortsScan(t *testing.T) {
	const rows = 1000
	src := &memColdSource{width: 3, chunk: 10}
	for r := 0; r < rows; r++ {
		src.keys = append(src.keys, []uint32{uint32(r % 7), uint32(r % 5), uint32(r % 3)})
		src.meas = append(src.meas, float64(r))
	}
	s, err := NewColdServer(src, []int{7, 5, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from inside the scan after the third chunk, so the abort is
	// deterministic: chunk 4's context check must fail.
	ctx, cancel := context.WithCancel(context.Background())
	src.onChunk = func(n int) {
		if n == 3 {
			cancel()
		}
	}
	_, _, err = s.QueryCtx(ctx, lattice.Mask(0b001))
	src.onChunk = nil
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	aborted := src.chunksYielded()
	if aborted >= rows/src.chunk {
		t.Fatalf("scan ran to completion (%d chunks) despite cancellation", aborted)
	}
	if got := s.Stats().Canceled; got == 0 {
		t.Fatal("Canceled counter not incremented")
	}

	// A fresh query recovers: full scan, correct metrics.
	cub, qs, err := s.Query(lattice.Mask(0b001))
	if err != nil {
		t.Fatal(err)
	}
	if !qs.ColdScan || qs.RowsScanned != rows {
		t.Fatalf("recovery query stats %+v, want full cold scan of %d rows", qs, rows)
	}
	if cub.Rows() != 7 {
		t.Fatalf("cuboid has %d cells, want 7", cub.Rows())
	}
}

// signalCtx reports when something starts waiting on it: QueryCtx asks a
// context for Done only once it has joined an in-flight computation and
// is about to block on it.
type signalCtx struct {
	context.Context
	waiting func()
}

func (c signalCtx) Done() <-chan struct{} {
	c.waiting()
	return c.Context.Done()
}

// TestColdLeaderCancelDoesNotFailLiveWaiter: a leader cancelled mid-scan
// fails only itself. A waiter coalesced on its flight whose own context is
// still live re-enters the miss path and returns the full, correct cuboid;
// Canceled counts the leader alone and no flight is left behind.
func TestColdLeaderCancelDoesNotFailLiveWaiter(t *testing.T) {
	const rows = 1000
	src := &memColdSource{width: 3, chunk: 10}
	for r := 0; r < rows; r++ {
		src.keys = append(src.keys, []uint32{uint32(r % 7), uint32(r % 5), uint32(r % 3)})
		src.meas = append(src.meas, float64(r))
	}
	s, err := NewColdServer(src, []int{7, 5, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := lattice.Mask(0b001)

	// The leader parks inside its third chunk until the waiter has joined
	// its flight, then is cancelled: chunk 4's context check fails.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	inScan, joined := make(chan struct{}), make(chan struct{})
	src.onChunk = func(n int) {
		if n == 3 {
			close(inScan)
			<-joined
			cancelLeader()
		}
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.QueryCtx(leaderCtx, q)
		leaderDone <- err
	}()
	<-inScan

	var once sync.Once
	waiterCtx := signalCtx{context.Background(), func() { once.Do(func() { close(joined) }) }}
	cub, qs, err := s.QueryCtx(waiterCtx, q)
	if err != nil {
		t.Fatalf("live waiter got the leader's fate: %v", err)
	}
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if !qs.ColdScan || qs.RowsScanned != rows {
		t.Fatalf("waiter stats %+v, want its own full cold scan of %d rows", qs, rows)
	}
	if cub.Rows() != 7 {
		t.Fatalf("cuboid has %d cells, want 7", cub.Rows())
	}
	for i := 0; i < cub.Rows(); i++ {
		var n int64
		var sum float64
		for r := i; r < rows; r += 7 {
			n++
			sum += float64(r)
		}
		if st := cub.States[i]; cub.Row(i)[0] != uint32(i) || st.Count != n || st.Sum != sum {
			t.Fatalf("cell %d = %v %+v, want count %d sum %g", i, cub.Row(i), st, n, sum)
		}
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled = %d, want 1 (the leader only)", got)
	}
	s.mu.Lock()
	leaked := len(s.inflight)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flights left in the inflight map", leaked)
	}
}

// TestFlightPanicReleasesWaiters: a computation that panics still lands
// its flight. The leader re-panics, a query that joined the flight gets
// a *PanicError instead of waiting for its deadline, and the next query
// for the mask computes afresh instead of joining the dead flight.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	leaf, cards := buildLeaf([]int{6, 5, 4}, 400, 3)
	s := NewServer(leaf, cards, 0)
	q := lattice.Mask(0b110)

	joinedErr := make(chan error, 1)
	var once sync.Once
	s.testBeforeAdmit = func() {
		once.Do(func() {
			// Blow up the leader's computation once a second query has
			// joined its flight.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			joined := make(chan struct{})
			var joinOnce sync.Once
			go func() {
				defer cancel()
				_, _, err := s.QueryCtx(signalCtx{ctx, func() { joinOnce.Do(func() { close(joined) }) }}, q)
				joinedErr <- err
			}()
			<-joined
			panic("compute exploded")
		})
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the leader did not re-panic")
			}
		}()
		s.Query(q)
	}()
	var pe *PanicError
	if err := <-joinedErr; !errors.As(err, &pe) {
		t.Fatalf("joined query: %v, want a *PanicError", err)
	}
	if n := inflightLen(s); n != 0 {
		t.Fatalf("%d flights left registered after the panic", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	cub, _, err := s.QueryCtx(ctx, q)
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	checkCuboid(t, leaf, q, cub)
}
