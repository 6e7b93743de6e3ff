package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
	"icebergcube/internal/wal"
)

// TestValidateFlags: incompatible flag combinations fail up front with a
// usage message naming the fix, and every supported combination passes.
func TestValidateFlags(t *testing.T) {
	ok := func(o options) options { // fill required defaults
		if o.minsup == 0 {
			o.minsup = 1
		}
		if o.policy == "" {
			o.policy = "lru"
		}
		return o
	}
	valid := []options{
		{input: "sales.csv"},
		{synthetic: 50000, algo: "PT", parallel: true},
		{input: "sales.csv", waldir: "/tmp/wal", policy: "adaptive"},
		{input: "sales.csv", segdir: "/tmp/seg"},
		{segdir: "/tmp/seg", memlimit: 1 << 20, algo: "BPP"},
		{input: "sales.csv", httpA: ":8080"},
		{input: "sales.csv", waldir: "/tmp/wal", httpA: ":8080"},
		{segdir: "/tmp/seg", httpA: ":8080"},
		{httpA: ":8080", policy: "adaptive", input: "sales.csv"},
	}
	for i, o := range valid {
		if err := validateFlags(ok(o)); err != nil {
			t.Errorf("valid combo %d rejected: %v (%+v)", i, err, o)
		}
	}

	invalid := []struct {
		o    options
		want string // substring of the usage message
	}{
		{options{memlimit: 1 << 20}, "-segdir"},
		{options{policy: "adaptive"}, "serving mode"},
		{options{segdir: "/tmp/seg", httpA: ":8080", policy: "adaptive"}, "cold tier"},
		{options{waldir: "/tmp/wal", segdir: "/tmp/seg"}, "one"},
		{options{httpA: ":8080", segdir: "/tmp/seg", memlimit: 1 << 20}, "batch run"},
		{options{waldir: "/tmp/wal", algo: "PT"}, "-algo"},
		{options{httpA: ":8080", algo: "PT"}, "-algo"},
		{options{waldir: "/tmp/wal", parallel: true}, "-parallel"},
		{options{input: "a.csv", synthetic: 100}, "not both"},
		{options{input: "a.csv", minsup: -1}, "-minsup"},
	}
	for i, tc := range invalid {
		o := tc.o
		if o.minsup == 0 {
			o.minsup = 1
		}
		err := validateFlags(o)
		if err == nil {
			t.Errorf("invalid combo %d accepted: %+v", i, tc.o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("combo %d: message %q does not mention %q", i, err, tc.want)
		}
	}
}

// TestServeHTTPShutsDown: a durable server that has committed over HTTP
// returns from serveHTTP once its context is cancelled, leaves the port
// free, and leaves a log that needs no truncation repair and recovers the
// committed version.
func TestServeHTTPShutsDown(t *testing.T) {
	waldir := filepath.Join(t.TempDir(), "wal")
	o := options{
		synthetic: 300, seed: 2001, dims: "cloudlow,visibility", workers: 2,
		minsup: 1, policy: "lru", waldir: waldir, httpA: "127.0.0.1:0",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan net.Addr, 1)
	returned := make(chan error, 1)
	go func() { returned <- serveHTTP(ctx, o, func(a net.Addr) { bound <- a }) }()
	var addr string
	select {
	case a := <-bound:
		addr = a.String()
	case err := <-returned:
		t.Fatalf("serveHTTP returned before listening: %v", err)
	}

	resp, err := http.Post("http://"+addr+"/v1/mutate", "application/json",
		strings.NewReader(`{"appends":[{"values":["1","1"],"measure":5}],"commit":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var mr httpserve.MutateResponse
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || mr.Version < 2 {
		t.Fatalf("commit over HTTP: status %d, response %+v, err %v", resp.StatusCode, mr, err)
	}

	cancel()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("serveHTTP: %v", err)
		}
	case <-time.After(2 * shutdownGrace):
		t.Fatal("serveHTTP did not return after its context was cancelled")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after shutdown: %v", err)
	}
	ln.Close()

	replay, err := wal.Replay(wal.DirFS{}, waldir)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Truncated {
		t.Fatalf("log left with a torn tail at segment %d offset %d", replay.TruncatedSeg, replay.TruncatedAt)
	}
	m, recovered, err := icebergcube.OpenDurable(icebergcube.SyntheticWeather(o.synthetic, o.seed), strings.Split(o.dims, ","), o.workers, waldir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !recovered || m.Version() != mr.Version {
		t.Fatalf("recovered=%v at v%d, want the committed v%d", recovered, m.Version(), mr.Version)
	}
}
