package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
)

// tier says which serving backend a stack is built on.
type tier int

const (
	tierWarm    tier = iota // Materialize, leaf in memory
	tierDurable             // MaterializeDurable on a real directory, fsync on
	tierCold                // FlushSegments + OpenCold, leaf on disk
)

// stack is one self-hosted serving stack with production defaults
// (BatchWindow 0, LRU, default admission): the cube, the HTTP front-end
// over it and, when listen is set, a loopback listener.
type stack struct {
	warm   *icebergcube.Materialized
	cold   *icebergcube.ColdCube
	dir    string        // WAL or segment directory ("" for tierWarm)
	flush  time.Duration // tierCold: what FlushSegments took
	back   httpserve.Backend
	front  *httpserve.Server
	server *http.Server
	base   string // "http://127.0.0.1:port"
	client *http.Client
}

// newStack builds a stack over in's serving cube. budget ≤ 0 keeps the
// default cache budget; dirs are created under scratch.
func newStack(in *inputs, t tier, budget int64, scratch string, listen bool) (*stack, error) {
	s := &stack{}
	var err error
	switch t {
	case tierWarm:
		s.warm, err = icebergcube.Materialize(in.ds, in.serveDims, cubeWorkers)
	case tierDurable:
		if s.dir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return nil, err
		}
		s.warm, err = icebergcube.MaterializeDurable(in.ds, in.serveDims, cubeWorkers, filepath.Join(s.dir, "log"))
	case tierCold:
		if s.dir, err = os.MkdirTemp(scratch, "seg-"); err != nil {
			return nil, err
		}
		var m *icebergcube.Materialized
		if m, err = icebergcube.Materialize(in.ds, in.serveDims, cubeWorkers); err != nil {
			break
		}
		t0 := time.Now()
		if err = m.FlushSegments(filepath.Join(s.dir, "table")); err != nil {
			break
		}
		s.flush = time.Since(t0)
		s.cold, err = icebergcube.OpenCold(filepath.Join(s.dir, "table"), budget)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if s.warm != nil {
		if budget > 0 {
			s.warm.SetCacheBudget(budget)
		}
		s.back = httpserve.Warm(s.warm)
	} else {
		s.back = httpserve.Cold(s.cold)
	}
	s.front = httpserve.New(httpserve.Config{Backend: s.back, AllowMutations: t == tierDurable})
	if !listen {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.server = &http.Server{Handler: s.front}
	go s.server.Serve(ln) // returns once close shuts the server down
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
	return s, nil
}

// close shuts the listener down, releases the WAL and removes the
// stack's directory.
func (s *stack) close() {
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.server.Shutdown(ctx)
		cancel()
		s.client.CloseIdleConnections()
	}
	if s.warm != nil {
		s.warm.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// clients is the closed loop's width: one goroutine and one connection
// per client, never more than the machine has processors.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// get issues one GET and drains the body, returning its length. Any
// transport error or non-200 is an error.
func (s *stack) get(path string) (int64, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return n, nil
}

// fetch issues one GET and returns the whole body (verification only).
func (s *stack) fetch(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// post sends one /v1/mutate body and drains the reply.
func (s *stack) post(body string) error {
	resp, err := s.client.Post(s.base+"/v1/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/mutate: status %d: %s", resp.StatusCode, reply)
	}
	return nil
}
