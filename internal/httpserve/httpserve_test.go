package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
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
// batch key).
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

// blockingBackend delegates to an inner backend but parks AnswerEach on
// a gate so tests can hold execution slots open deterministically.
type blockingBackend struct {
	Backend
	gate    chan struct{}
	entered chan struct{}
}

func (b *blockingBackend) AnswerEach(ctx context.Context, groupBy []string, minSupport int64, yield func(icebergcube.Cell) error) (uint64, error) {
	b.entered <- struct{}{}
	<-b.gate
	return b.Backend.AnswerEach(ctx, groupBy, minSupport, yield)
}

// TestAdmissionQueueFull: with one slot and no queue, a request arriving
// while the slot is held is shed immediately with 429 and a reason
// header.
func TestAdmissionQueueFull(t *testing.T) {
	m := fixtureCube(t)
	bb := &blockingBackend{Backend: Warm(m), gate: make(chan struct{}), entered: make(chan struct{}, 1)}
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

// TestBatchingCoalesces: many identical queries inside one window share
// one derivation and receive byte-identical bodies, even though the
// cache is too small to retain anything (so every separate request
// would otherwise derive).
func TestBatchingCoalesces(t *testing.T) {
	s, m := newTestServer(t, Config{BatchWindow: 60 * time.Millisecond})
	m.SetCacheBudget(1) // nothing fits: every un-batched miss re-derives

	const G = 64
	before := s.Metrics().Derivations
	bodies := make([][]byte, G)
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger arrivals across a fraction of the window: all join
			// the leader's batch, none arrive "while in flight" by luck.
			time.Sleep(time.Duration(i%8) * time.Millisecond)
			rec := get(t, s, "/v1/query?group_by=Model,Year,Color&min_support=1", nil)
			if rec.Code == 200 {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < G; i++ {
		if bodies[i] == nil || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("body %d differs (nil=%v)", i, bodies[i] == nil)
		}
	}
	bm := s.Metrics().Batch
	if bm.Joined != G {
		t.Fatalf("Joined = %d, want %d", bm.Joined, G)
	}
	derived := s.Metrics().Derivations - before
	// Timer scheduling may split the arrivals across a couple of windows,
	// but the point of batching is that derivations ≪ queries.
	if bm.Batches < 1 || bm.Batches > 4 {
		t.Fatalf("Batches = %d, want a handful", bm.Batches)
	}
	if derived > bm.Batches {
		t.Fatalf("%d derivations for %d batches", derived, bm.Batches)
	}
	if bm.MaxBatch < G/4 {
		t.Fatalf("MaxBatch = %d, implausibly small for %d staggered arrivals", bm.MaxBatch, G)
	}
}

// TestBatchAllAbandoned: if every member of a window hangs up before it
// closes, the backend is never called for that window.
func TestBatchAllAbandoned(t *testing.T) {
	var runs atomic.Int64
	b := newBatcher(20*time.Millisecond, func(ctx context.Context, groupBy []string, minSupport int64) ([]byte, error) {
		runs.Add(1)
		return []byte("x"), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, []string{"A"}, 1, 1)
		done <- err
	}()
	// Wait until the request has opened its window, then hang up.
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Let the window close and assert it skipped the derivation.
	deadline := time.Now().Add(time.Second)
	for b.metrics().Skipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("window never closed as skipped")
		}
		time.Sleep(time.Millisecond)
	}
	if runs.Load() != 0 {
		t.Fatalf("backend ran %d times for an abandoned window", runs.Load())
	}
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
	want, err := EncodeQuery(context.Background(), Warm(m), []string{"Model", "Year"}, 2)
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

// TestEncodeQueryDifferential: EncodeQuery (what cubewarp uses to build
// expected bodies) and the live handler produce identical bytes — the
// invariant the load harness's live differential rests on.
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
		want, err := EncodeQuery(context.Background(), Warm(m), gb, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%v: live body differs from EncodeQuery:\n%s\n%s", gb, rec.Body, want)
		}
	}
}
