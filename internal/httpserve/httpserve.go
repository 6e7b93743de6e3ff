// Package httpserve is the network edge of the iceberg-cube serving
// stack: an HTTP front-end layering request admission (bounded queue +
// per-tenant token buckets + fast 429 shedding), identical-query
// coalescing (equal buffered queries that overlap in time share one
// derivation and one encoded buffer), and chunked streaming responses
// over the warm/cold serving tiers. Context cancellation is plumbed from
// the connection down through the serving layer's singleflight, so a
// hung-up client stops consuming cube capacity as soon as the layers
// below can observe it.
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Config configures a Server.
type Config struct {
	// Backend answers queries (required).
	Backend Backend
	// Admission bounds concurrent work; the zero value gets serving
	// defaults (64 slots, 256 queued, no tenant quotas).
	Admission AdmissionConfig
	// StreamFlushCells flushes a streaming response to the client every
	// this many cells (≤ 0 = 256).
	StreamFlushCells int
	// AllowMutations enables POST /v1/mutate when the backend implements
	// Mutator.
	AllowMutations bool
}

// Server is the HTTP front-end. It implements http.Handler.
//
// Endpoints:
//
//	GET  /v1/query?group_by=A,B&min_support=N[&stream=1]
//	GET  /v1/dims
//	GET  /v1/metrics
//	POST /v1/mutate   (when enabled; body: MutateRequest)
//	GET  /healthz
type Server struct {
	backend Backend
	mutator Mutator
	adm     *admission
	flights *flights
	flushN  int
	mux     *http.ServeMux
}

// MutateRequest is the body of POST /v1/mutate. Rows travel as value
// tuples in the cube's dimension order.
type MutateRequest struct {
	Appends []MutateRow `json:"appends,omitempty"`
	Deletes []MutateRow `json:"deletes,omitempty"`
	// Commit publishes a new snapshot after the edits apply.
	Commit bool `json:"commit"`
}

// MutateRow is one row of a mutation.
type MutateRow struct {
	Values  []string `json:"values"`
	Measure float64  `json:"measure"`
}

// MutateResponse reports a mutation's outcome.
type MutateResponse struct {
	Appended int    `json:"appended"`
	Deleted  int    `json:"deleted"`
	Version  uint64 `json:"version"`
}

// ServerMetrics is the body of GET /v1/metrics.
type ServerMetrics struct {
	Admission AdmissionMetrics `json:"admission"`
	Batch     BatchMetrics     `json:"batch"`
	// Derivations is the backend's cumulative cuboid-computation count.
	Derivations int64  `json:"derivations"`
	Version     uint64 `json:"version"`
}

// maxMutateBody caps a POST /v1/mutate body. A batch is held in memory
// three times over (JSON, rows, encoded delta) before it commits, so the
// cap bounds what one request can pin; 8 MiB is tens of thousands of rows.
const maxMutateBody = 8 << 20

// errorBody is every non-200 JSON body.
type errorBody struct {
	Error string `json:"error"`
}

// New builds the front-end. It panics if cfg.Backend is nil (a
// programming error, not a runtime condition).
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("httpserve: Config.Backend is required")
	}
	s := &Server{
		backend: cfg.Backend,
		adm:     newAdmission(cfg.Admission),
		flights: &flights{backend: cfg.Backend, active: map[flightKey]*flight{}},
		flushN:  cfg.StreamFlushCells,
	}
	if s.flushN <= 0 {
		s.flushN = 256
	}
	if cfg.AllowMutations {
		if m, ok := cfg.Backend.(Mutator); ok {
			s.mutator = m
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/dims", s.handleDims)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the front-end's counters (also served at /v1/metrics).
func (s *Server) Metrics() ServerMetrics {
	return ServerMetrics{
		Admission:   s.adm.metrics(),
		Batch:       s.flights.metrics(),
		Derivations: s.backend.Derivations(),
		Version:     s.backend.Version(),
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// parseQuery pulls (groupBy, minSupport, stream) out of the URL. An
// empty group_by is the ALL cell.
func parseQuery(r *http.Request) (groupBy []string, minSupport int64, stream bool, err error) {
	q := r.URL.Query()
	if raw := strings.TrimSpace(q.Get("group_by")); raw != "" {
		for _, f := range strings.Split(raw, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				return nil, 0, false, fmt.Errorf("empty attribute in group_by %q", raw)
			}
			groupBy = append(groupBy, f)
		}
	}
	minSupport = 1
	if raw := q.Get("min_support"); raw != "" {
		minSupport, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || minSupport < 1 {
			return nil, 0, false, fmt.Errorf("min_support must be a positive integer, got %q", raw)
		}
	}
	stream = q.Get("stream") == "1" || q.Get("stream") == "true"
	return groupBy, minSupport, stream, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	groupBy, minSupport, stream, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	canonical, err := CanonicalGroupBy(s.backend.Attrs(), groupBy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx := r.Context()
	shed, err := s.adm.admit(ctx, r.Header.Get("X-Tenant"))
	if err != nil {
		// The client hung up while queued; nobody is listening, but end
		// the exchange coherently.
		writeError(w, 499, "client closed request while queued")
		return
	}
	if shed != ShedNone {
		w.Header().Set("X-Shed-Reason", string(shed))
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded: "+string(shed))
		return
	}
	defer s.adm.release()

	if stream {
		s.streamQuery(ctx, w, canonical, minSupport)
		return
	}

	body, err := s.flights.do(ctx, canonical, minSupport, s.backend.Version())
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, 499, "client closed request")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// streamQuery writes the NDJSON form (encoder.ndjson), flushing every
// flushN cells so a full-lattice dump reaches the client incrementally
// and never buffers the whole result server-side. Its header carries the
// version the answer was served at, whatever commits since. Streams
// bypass the flights: their bytes go to the socket as they are produced,
// so there is no buffer to share.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, canonical []string, minSupport int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	cols, err := s.backend.AnswerColumns(ctx, canonical, minSupport)
	if err != nil {
		return // an empty stream: no header, no trailer
	}
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	newEncoder(cols).ndjson(w, s.flushN, flush)
}

func (s *Server) handleDims(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Attrs   []string `json:"attrs"`
		Version uint64   `json:"version"`
	}{Attrs: s.backend.Attrs(), Version: s.backend.Version()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.mutator == nil {
		writeError(w, http.StatusMethodNotAllowed, "mutations are disabled on this server")
		return
	}
	var req MutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("mutate body exceeds %d bytes", maxMutateBody))
			return
		}
		writeError(w, http.StatusBadRequest, "bad mutate body: "+err.Error())
		return
	}
	apply := func(rows []MutateRow, f func([][]string, []float64) error) error {
		if len(rows) == 0 {
			return nil
		}
		vals := make([][]string, len(rows))
		meas := make([]float64, len(rows))
		for i, mr := range rows {
			vals[i] = mr.Values
			meas[i] = mr.Measure
		}
		return f(vals, meas)
	}
	if err := apply(req.Appends, s.mutator.Append); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := apply(req.Deletes, s.mutator.Delete); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Commit {
		if _, err := s.mutator.Commit(); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(MutateResponse{
		Appended: len(req.Appends),
		Deleted:  len(req.Deletes),
		Version:  s.backend.Version(),
	})
}
