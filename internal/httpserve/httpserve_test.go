package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/wal"
)

// fixtureCube builds a small three-dimensional cube with enough repeated
// values that every group-by has interesting counts.
func fixtureCube(t *testing.T) *icebergcube.Materialized {
	t.Helper()
	models := []string{"ford", "chevy", "honda"}
	years := []string{"1990", "1991"}
	colors := []string{"red", "blue"}
	var rows [][]string
	var meas []float64
	for i := 0; i < 24; i++ {
		rows = append(rows, []string{models[i%3], years[i%2], colors[(i/2)%2]})
		meas = append(meas, float64(i+1))
	}
	ds, err := icebergcube.FromRows([]string{"Model", "Year", "Color"}, rows, meas)
	if err != nil {
		t.Fatal(err)
	}
	m, err := icebergcube.Materialize(ds, []string{"Model", "Year", "Color"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, cfg Config) (*Server, *icebergcube.Materialized) {
	t.Helper()
	m := fixtureCube(t)
	cfg.Backend = Warm(m)
	cfg.AllowMutations = true
	return New(cfg), m
}

func get(t *testing.T, s *Server, url string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestQueryMatchesAnswer: the HTTP body decodes to exactly the cells the
// in-process oracle returns.
func TestQueryMatchesAnswer(t *testing.T) {
	s, m := newTestServer(t, Config{})
	rec := get(t, s, "/v1/query?group_by=Model,Year&min_support=3", nil)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := m.Answer([]string{"Model", "Year"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != len(want) {
		t.Fatalf("%d cells on the wire, oracle has %d", len(resp.Cells), len(want))
	}
	for i, c := range want {
		w := resp.Cells[i]
		if !reflect.DeepEqual(w.Values, c.Values) || w.Count != c.Count || w.Sum != c.Sum || w.Min != c.Min || w.Max != c.Max || w.Avg != c.Avg {
			t.Fatalf("cell %d: wire %+v oracle %+v", i, w, c)
		}
	}
	if resp.Version != m.Version() {
		t.Fatalf("wire version %d, cube version %d", resp.Version, m.Version())
	}
	if !reflect.DeepEqual(resp.GroupBy, []string{"Model", "Year"}) {
		t.Fatalf("group_by on wire = %v", resp.GroupBy)
	}
}

// TestGroupByCanonicalization: attribute order in the URL is irrelevant —
// the two spellings return byte-identical bodies (and therefore share a
// flight key).
func TestGroupByCanonicalization(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	a := get(t, s, "/v1/query?group_by=Model,Year", nil)
	b := get(t, s, "/v1/query?group_by=Year,Model", nil)
	if a.Code != 200 || b.Code != 200 {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("reordered group_by produced different bytes:\n%s\n%s", a.Body, b.Body)
	}
}

// TestQueryValidation: malformed requests fail fast with 400 and a JSON
// error body, before admission or any backend work.
func TestQueryValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, url := range []string{
		"/v1/query?group_by=NoSuchDim",
		"/v1/query?group_by=Model,Model",
		"/v1/query?group_by=Model,,Year",
		"/v1/query?group_by=Model&min_support=0",
		"/v1/query?group_by=Model&min_support=banana",
	} {
		rec := get(t, s, url, nil)
		if rec.Code != 400 {
			t.Fatalf("%s: status %d, want 400", url, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: error body %q", url, rec.Body)
		}
	}
	if d := s.Metrics().Admission.Admitted; d != 0 {
		t.Fatalf("invalid requests were admitted: %d", d)
	}
}

// TestStreaming: the NDJSON stream carries a header, every cell in
// oracle order, and a trailer whose count matches.
func TestStreaming(t *testing.T) {
	s, m := newTestServer(t, Config{StreamFlushCells: 2})
	rec := get(t, s, "/v1/query?group_by=Model,Color&stream=1", nil)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	if !sc.Scan() {
		t.Fatal("empty stream")
	}
	var hdr StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if !hdr.Stream || !reflect.DeepEqual(hdr.GroupBy, []string{"Model", "Color"}) {
		t.Fatalf("header %+v", hdr)
	}
	want, err := m.Answer([]string{"Model", "Color"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) != len(want)+1 {
		t.Fatalf("%d lines after header, want %d cells + trailer", len(lines), len(want))
	}
	for i, c := range want {
		var w WireCell
		if err := json.Unmarshal(lines[i], &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Values, c.Values) || w.Count != c.Count {
			t.Fatalf("stream cell %d: %+v vs oracle %+v", i, w, c)
		}
	}
	var tr StreamTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Cells != len(want) {
		t.Fatalf("trailer count %d, want %d", tr.Cells, len(want))
	}
}

// blockingBackend answers from an inner backend, then parks on a gate
// before yielding anything, so tests can hold an answer — already
// computed at the version current when it was asked for — in flight
// deterministically. It counts calls, and calls that ended because their
// context was cancelled while parked.
type blockingBackend struct {
	Backend
	gate      chan struct{}
	entered   chan struct{}
	calls     atomic.Int64
	cancelled atomic.Int64
}

func newBlockingBackend(b Backend) *blockingBackend {
	// entered is sized so a test expecting one call reports a surplus
	// one as a count mismatch instead of deadlocking on the send.
	return &blockingBackend{Backend: b, gate: make(chan struct{}), entered: make(chan struct{}, 128)}
}

func (b *blockingBackend) AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*icebergcube.Columns, error) {
	b.calls.Add(1)
	cols, err := b.Backend.AnswerColumns(ctx, groupBy, minSupport)
	if err != nil {
		return nil, err
	}
	b.entered <- struct{}{}
	select {
	case <-b.gate:
	case <-ctx.Done():
		b.cancelled.Add(1)
		return nil, ctx.Err()
	}
	return cols, nil
}

// waitFor polls cond until it holds; the conditions tests wait on are
// counters the server publishes, which have no channel to select on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// flightStats reports how many flights are registered and how many
// requests are still waiting across them.
func flightStats(s *Server) (flights, waiting int) {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	for _, f := range s.flights.active {
		waiting += f.waiting
	}
	return len(s.flights.active), waiting
}

func assertNoFlight(t *testing.T, s *Server) {
	t.Helper()
	if n, _ := flightStats(s); n != 0 {
		t.Fatalf("%d flight(s) left registered", n)
	}
}

// getAsync issues a GET on its own goroutine under ctx and delivers the
// recorder when the handler returns.
func getAsync(ctx context.Context, s *Server, url string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil).WithContext(ctx))
		done <- rec
	}()
	return done
}

// TestAdmissionQueueFull: with one slot and no queue, a request arriving
// while the slot is held is shed immediately with 429 and a reason
// header.
func TestAdmissionQueueFull(t *testing.T) {
	m := fixtureCube(t)
	bb := newBlockingBackend(Warm(m))
	s := New(Config{Backend: bb, Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: -1}})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- get(t, s, "/v1/query?group_by=Model", nil)
	}()
	<-bb.entered // the slot is now held inside the backend

	rec := get(t, s, "/v1/query?group_by=Year", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("X-Shed-Reason"); got != string(ShedQueueFull) {
		t.Fatalf("X-Shed-Reason %q, want %q", got, ShedQueueFull)
	}

	close(bb.gate)
	if rec := <-firstDone; rec.Code != 200 {
		t.Fatalf("first request status %d: %s", rec.Code, rec.Body)
	}
	am := s.Metrics().Admission
	if am.Admitted != 1 || am.ShedQueueFull != 1 {
		t.Fatalf("admission metrics %+v", am)
	}
}

// TestTenantRateLimit: the token bucket sheds a tenant over its rate and
// refills with time; other tenants are unaffected.
func TestTenantRateLimit(t *testing.T) {
	a := newAdmission(AdmissionConfig{TenantRate: 1, TenantBurst: 2})
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		shed, err := a.admit(ctx, "alice")
		if shed != ShedNone || err != nil {
			t.Fatalf("burst request %d shed: %v %v", i, shed, err)
		}
		a.release()
	}
	if shed, _ := a.admit(ctx, "alice"); shed != ShedTenantRate {
		t.Fatalf("over-rate request not shed: %v", shed)
	}
	if shed, _ := a.admit(ctx, "bob"); shed != ShedNone {
		t.Fatalf("other tenant was shed: %v", shed)
	}
	a.release()
	now = now.Add(1500 * time.Millisecond) // refills 1.5 tokens → 1 usable
	if shed, _ := a.admit(ctx, "alice"); shed != ShedNone {
		t.Fatalf("refilled tenant still shed: %v", shed)
	}
	a.release()
	if shed, _ := a.admit(ctx, "alice"); shed != ShedTenantRate {
		t.Fatal("bucket did not deplete after refill was spent")
	}
	if m := a.metrics(); m.ShedTenantRate != 2 {
		t.Fatalf("ShedTenantRate = %d, want 2", m.ShedTenantRate)
	}
}

const burstURL = "/v1/query?group_by=Model,Year,Color&min_support=1"

// burstServer is a server over the fixture cube whose backend parks
// every answer until the test opens the gate.
func burstServer(t *testing.T) (*Server, *blockingBackend, *icebergcube.Materialized) {
	t.Helper()
	m := fixtureCube(t)
	bb := newBlockingBackend(Warm(m))
	return New(Config{Backend: bb}), bb, m
}

// burstBody is the body burstURL must be answered with at m's current
// version.
func burstBody(t *testing.T, m *icebergcube.Materialized) []byte {
	t.Helper()
	want, err := referenceBody(Warm(m), []string{"Model", "Year", "Color"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestBatchingCoalesces: identical queries that overlap one encode share
// it — one backend call, and every response is the reference encoding.
func TestBatchingCoalesces(t *testing.T) {
	s, bb, m := burstServer(t)
	const G = 64
	var reqs []<-chan *httptest.ResponseRecorder
	for i := 0; i < G; i++ {
		reqs = append(reqs, getAsync(context.Background(), s, burstURL))
	}
	waitFor(t, "all requests to join the flight", func() bool { return s.Metrics().Batch.Joined == G })
	close(bb.gate)

	want := burstBody(t, m)
	for i, ch := range reqs {
		rec := <-ch
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("response %d: status %d, body differs from the reference:\n%s\n%s", i, rec.Code, rec.Body, want)
		}
	}
	if n := bb.calls.Load(); n != 1 {
		t.Fatalf("%d backend calls for one identical burst, want 1", n)
	}
	if bm := s.Metrics().Batch; bm != (BatchMetrics{Batches: 1, Joined: G, MaxBatch: G}) {
		t.Fatalf("batch metrics %+v", bm)
	}
	assertNoFlight(t, s)
}

// TestFlightSurvivesFirstArrivalDisconnect: the request that started the
// encode hangs up while others wait on it; the encode is not cancelled
// and every other waiter still gets the full body.
func TestFlightSurvivesFirstArrivalDisconnect(t *testing.T) {
	s, bb, m := burstServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	first := getAsync(ctx, s, burstURL)
	<-bb.entered // the first arrival's encode is parked in the backend

	const F = 8
	var followers []<-chan *httptest.ResponseRecorder
	for i := 0; i < F; i++ {
		followers = append(followers, getAsync(context.Background(), s, burstURL))
	}
	waitFor(t, "followers to join", func() bool { _, w := flightStats(s); return w == F+1 })
	cancel()
	waitFor(t, "the first arrival to count out", func() bool { _, w := flightStats(s); return w == F })
	close(bb.gate)

	want := burstBody(t, m)
	for i, ch := range followers {
		rec := <-ch
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("follower %d: status %d body %s", i, rec.Code, rec.Body)
		}
	}
	if rec := <-first; rec.Code != 499 {
		t.Fatalf("disconnected first arrival: status %d, want 499", rec.Code)
	}
	if calls, cancelled := bb.calls.Load(), bb.cancelled.Load(); calls != 1 || cancelled != 0 {
		t.Fatalf("%d backend calls (%d cancelled), want 1 uncancelled", calls, cancelled)
	}
	assertNoFlight(t, s)
}

// TestBatchAllAbandoned: when every waiter of a flight hangs up, the
// backend's context is cancelled, the flight is unregistered, and the
// next request starts a fresh encode instead of joining the dead one.
func TestBatchAllAbandoned(t *testing.T) {
	s, bb, _ := burstServer(t)
	const W = 4
	var reqs []<-chan *httptest.ResponseRecorder
	var cancels []context.CancelFunc
	for i := 0; i < W; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		reqs = append(reqs, getAsync(ctx, s, burstURL))
	}
	<-bb.entered
	waitFor(t, "all waiters to join", func() bool { _, w := flightStats(s); return w == W })
	for _, cancel := range cancels {
		cancel()
	}
	for i, ch := range reqs {
		if rec := <-ch; rec.Code != 499 {
			t.Fatalf("abandoned request %d: status %d, want 499", i, rec.Code)
		}
	}
	if calls, cancelled := bb.calls.Load(), bb.cancelled.Load(); calls != 1 || cancelled != 1 {
		t.Fatalf("%d backend calls (%d cancelled), want the one call cancelled", calls, cancelled)
	}
	assertNoFlight(t, s)

	next := getAsync(context.Background(), s, burstURL)
	<-bb.entered
	close(bb.gate)
	if rec := <-next; rec.Code != 200 {
		t.Fatalf("request after an abandoned flight: status %d: %s", rec.Code, rec.Body)
	}
	if n := bb.calls.Load(); n != 2 {
		t.Fatalf("%d backend calls, want a fresh second one", n)
	}
	assertNoFlight(t, s)
}

// TestFlightKeyedByVersion: a commit between two identical requests
// changes the key, so the second never receives bytes encoded for the
// version the first one's flight is holding.
func TestFlightKeyedByVersion(t *testing.T) {
	s, bb, m := burstServer(t)
	v0 := m.Version()
	before := getAsync(context.Background(), s, burstURL)
	<-bb.entered // the answer at v0 is computed and parked

	if err := m.Append([][]string{{"tesla", "1991", "red"}}, []float64{99}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}

	after := getAsync(context.Background(), s, burstURL)
	<-bb.entered // a second backend call: it did not join the v0 flight
	if n, _ := flightStats(s); n != 2 {
		t.Fatalf("%d flights registered across a commit, want 2", n)
	}
	close(bb.gate)

	var old, cur QueryResponse
	if err := json.Unmarshal((<-before).Body.Bytes(), &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal((<-after).Body.Bytes(), &cur); err != nil {
		t.Fatal(err)
	}
	if old.Version != v0 || cur.Version != v0+1 {
		t.Fatalf("versions served %d then %d, want %d then %d", old.Version, cur.Version, v0, v0+1)
	}
	if len(cur.Cells) != len(old.Cells)+1 {
		t.Fatalf("post-commit answer has %d cells, pre-commit %d: the appended row is missing", len(cur.Cells), len(old.Cells))
	}
	assertNoFlight(t, s)
}

// TestFlightSharedAcrossAttributeOrder: attribute-order permutations of
// one group-by share a flight.
func TestFlightSharedAcrossAttributeOrder(t *testing.T) {
	s, bb, _ := burstServer(t)
	a := getAsync(context.Background(), s, "/v1/query?group_by=Model,Year&min_support=2")
	<-bb.entered
	b := getAsync(context.Background(), s, "/v1/query?group_by=Year,Model&min_support=2")
	waitFor(t, "the permutation to join", func() bool { _, w := flightStats(s); return w == 2 })
	close(bb.gate)
	ra, rb := <-a, <-b
	if ra.Code != 200 || rb.Code != 200 || !bytes.Equal(ra.Body.Bytes(), rb.Body.Bytes()) {
		t.Fatalf("status %d / %d, bodies:\n%s\n%s", ra.Code, rb.Code, ra.Body, rb.Body)
	}
	if n := bb.calls.Load(); n != 1 {
		t.Fatalf("%d backend calls for two spellings of one group-by, want 1", n)
	}
	assertNoFlight(t, s)
}

// TestMutateRoundTrip: appended rows become visible after commit, and
// the served version advances.
func TestMutateRoundTrip(t *testing.T) {
	s, m := newTestServer(t, Config{})
	v0 := m.Version()
	body, _ := json.Marshal(MutateRequest{
		Appends: []MutateRow{{Values: []string{"tesla", "1991", "red"}, Measure: 99}},
		Commit:  true,
	})
	req := httptest.NewRequest("POST", "/v1/mutate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("mutate status %d: %s", rec.Code, rec.Body)
	}
	var mr MutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Version != v0+1 || mr.Appended != 1 {
		t.Fatalf("mutate response %+v, want version %d", mr, v0+1)
	}
	q := get(t, s, "/v1/query?group_by=Model", nil)
	var resp QueryResponse
	if err := json.Unmarshal(q.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range resp.Cells {
		if len(c.Values) == 1 && c.Values[0] == "tesla" {
			found = true
			if c.Count != 1 || c.Sum != 99 {
				t.Fatalf("tesla cell %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("appended row not served: %s", q.Body)
	}
}

// TestMutationsDisabled: without a Mutator (or with AllowMutations
// false) the endpoint refuses.
func TestMutationsDisabled(t *testing.T) {
	m := fixtureCube(t)
	s := New(Config{Backend: Warm(m)}) // AllowMutations not set
	req := httptest.NewRequest("POST", "/v1/mutate", bytes.NewReader([]byte(`{"commit":true}`)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

// TestMutateBodyTooLarge: a mutate body over the cap is refused with 413
// before any of it is applied, however well-formed it is.
func TestMutateBodyTooLarge(t *testing.T) {
	s, m := newTestServer(t, Config{})
	v0, cells0 := m.Version(), m.NumCells()
	row := []byte(`{"values":["tesla","1991","red"],"measure":1},`)
	var body bytes.Buffer
	body.WriteString(`{"commit":true,"appends":[`)
	for body.Len() <= maxMutateBody {
		body.Write(row)
	}
	body.Truncate(body.Len() - 1) // trailing comma
	body.WriteString(`]}`)
	req := httptest.NewRequest("POST", "/v1/mutate", &body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body)
	}
	if m.Version() != v0 || m.NumCells() != cells0 {
		t.Fatalf("oversized body was applied: version %d→%d, cells %d→%d", v0, m.Version(), cells0, m.NumCells())
	}
}

// TestColdBackendIsReadOnly: the cold tier goes through the same adapter
// as the warm one but never exposes its write side, even when the server
// is configured to allow mutations; queries match the warm tier's bytes.
func TestColdBackendIsReadOnly(t *testing.T) {
	m := fixtureCube(t)
	fsys := wal.NewMemFS()
	if err := m.FlushSegmentsFS(fsys, "cube"); err != nil {
		t.Fatal(err)
	}
	cold, err := icebergcube.OpenColdFS(fsys, "cube", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Backend: Cold(cold), AllowMutations: true})
	req := httptest.NewRequest("POST", "/v1/mutate", bytes.NewReader([]byte(`{"commit":true}`)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("cold mutate status %d, want 405", rec.Code)
	}
	want, err := referenceBody(Warm(m), []string{"Model", "Year"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := get(t, s, "/v1/query?group_by=Model,Year&min_support=2", nil)
	// The cold tier serves version 0, the warm fixture version 1.
	wantCold := bytes.Replace(want, []byte(`"version":1`), []byte(`"version":0`), 1)
	if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), wantCold) {
		t.Fatalf("cold body differs from warm:\n%s\n%s", got.Body, wantCold)
	}
	if d := s.Metrics().Derivations; d != 1 {
		t.Fatalf("Derivations = %d after one cold scan, want 1", d)
	}
}

// TestDimsAndHealth: the discovery endpoints answer.
func TestDimsAndHealth(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := get(t, s, "/v1/dims", nil)
	var dims struct {
		Attrs   []string `json:"attrs"`
		Version uint64   `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dims); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dims.Attrs, []string{"Model", "Year", "Color"}) || dims.Version != 1 {
		t.Fatalf("dims %+v", dims)
	}
	if rec := get(t, s, "/healthz", nil); rec.Code != 200 {
		t.Fatalf("healthz %d", rec.Code)
	}
}

// TestClientDisconnectCancelsQuery: a request whose context dies while
// being served propagates cancellation down to the serving layer instead
// of burning a slot.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/query?group_by=Model", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status %d, want 499", rec.Code)
	}
}

// TestEncodeQueryDifferential: the live handler's bytes, buffered and
// streamed, equal encoding/json's over the decoded answer.
func TestEncodeQueryDifferential(t *testing.T) {
	s, m := newTestServer(t, Config{})
	for _, gb := range [][]string{nil, {"Model"}, {"Year", "Model"}, {"Model", "Year", "Color"}} {
		url := "/v1/query?min_support=2"
		if len(gb) > 0 {
			url += "&group_by=" + gb[0]
			for _, g := range gb[1:] {
				url += "," + g
			}
		}
		rec := get(t, s, url, nil)
		if rec.Code != 200 {
			t.Fatalf("%v: status %d", gb, rec.Code)
		}
		want, err := referenceBody(Warm(m), gb, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%v: live body differs from the reference:\n%s\n%s", gb, rec.Body, want)
		}
		stream := get(t, s, url+"&stream=1", nil)
		if want := referenceStream(Warm(m), gb, 2); !bytes.Equal(stream.Body.Bytes(), want) {
			t.Fatalf("%v: live stream differs from the reference:\n%s\n%s", gb, stream.Body, want)
		}
	}
}

// TestStreamHeaderCarriesAnswerVersion: a commit that lands after the
// answer was taken but before the stream's header is written does not
// relabel the stream — the header carries the version its cells were
// answered at, for a non-empty and for an empty answer alike.
func TestStreamHeaderCarriesAnswerVersion(t *testing.T) {
	for _, url := range []string{
		"/v1/query?group_by=Model&stream=1",
		"/v1/query?group_by=Model&min_support=1000&stream=1",
	} {
		s, bb, m := burstServer(t)
		v0 := m.Version()
		done := getAsync(context.Background(), s, url)
		<-bb.entered // the answer at v0 is computed and parked
		if err := m.Append([][]string{{"tesla", "1991", "red"}}, []float64{99}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		close(bb.gate)
		rec := <-done
		line, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
		var hdr StreamHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			t.Fatalf("%s: header %q: %v", url, line, err)
		}
		if hdr.Version != v0 {
			t.Fatalf("%s: stream header says version %d, the cells are from version %d", url, hdr.Version, v0)
		}
	}
}

// panicOnceBackend is a backend whose first AnswerColumns panics, once
// the test closes release.
type panicOnceBackend struct {
	Backend
	armed   atomic.Bool
	release chan struct{}
}

func (b *panicOnceBackend) AnswerColumns(ctx context.Context, groupBy []string, minSupport int64) (*icebergcube.Columns, error) {
	if b.armed.CompareAndSwap(true, false) {
		<-b.release
		panic("encode exploded")
	}
	return b.Backend.AnswerColumns(ctx, groupBy, minSupport)
}

// TestFlightPanicReleasesWaiters: an encode that panics still lands its
// flight. The encoding request re-panics, a request that joined it is
// answered 500 at once instead of at its deadline, and the next identical
// query encodes afresh.
func TestFlightPanicReleasesWaiters(t *testing.T) {
	m := fixtureCube(t)
	pb := &panicOnceBackend{Backend: Warm(m), release: make(chan struct{})}
	pb.armed.Store(true)
	s := New(Config{Backend: pb})

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", burstURL, nil))
	}()
	waitFor(t, "the encoding flight", func() bool { n, w := flightStats(s); return n == 1 && w == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	joined := getAsync(ctx, s, burstURL)
	waitFor(t, "a joined request", func() bool { _, w := flightStats(s); return w == 2 })
	close(pb.release)

	if v := <-leader; v == nil {
		t.Fatal("the encoding request did not re-panic")
	}
	if rec := <-joined; rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("joined request: %d %s, want 500 naming the panic", rec.Code, rec.Body)
	}
	assertNoFlight(t, s)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	rec := <-getAsync(ctx2, s, burstURL)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), burstBody(t, m)) {
		t.Fatalf("query after the panic: %d %s", rec.Code, rec.Body)
	}
}
