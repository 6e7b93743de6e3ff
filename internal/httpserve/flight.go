package httpserve

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// flights shares one encoded response body among identical buffered
// queries that overlap in time: the first arrival for a key encodes,
// arrivals while it runs wait for the same buffer. Its invariants
// (DESIGN.md, "Network edge"): the snapshot version is part of the key,
// so a commit splits flights; the encode's context is detached from any
// one request and cancelled when the last waiter has left, in the same
// critical section that unregisters the flight, so nobody can join a
// cancelled encode; streaming responses never enter.
type flights struct {
	backend Backend

	mu     sync.Mutex
	active map[flightKey]*flight
	stats  BatchMetrics
}

type flightKey struct {
	groupBy    string // canonical order, comma-joined
	minSupport int64
	version    uint64
}

type flight struct {
	done   chan struct{} // closed after body/err are set
	body   []byte
	err    error
	cancel context.CancelFunc // stops the encode

	// Guarded by flights.mu.
	waiting int   // requests that joined and have not given up
	size    int64 // requests that ever joined
}

// BatchMetrics are the flights' cumulative counters.
type BatchMetrics struct {
	// Batches counts encodes started; Joined counts every buffered query.
	// Joined/Batches is the mean number of responses one encode served.
	Batches int64 `json:"batches"`
	Joined  int64 `json:"joined"`
	// MaxBatch is the most requests one encode has answered.
	MaxBatch int64 `json:"max_batch"`
}

// do returns the encoded body for (canonical, minSupport) at version,
// joining the encode already in flight for that key or running a new
// one. canonical must already be in canonical order.
func (fl *flights) do(ctx context.Context, canonical []string, minSupport int64, version uint64) ([]byte, error) {
	key := flightKey{strings.Join(canonical, ","), minSupport, version}

	fl.mu.Lock()
	f, joining := fl.active[key]
	var fctx context.Context
	if !joining {
		f = &flight{done: make(chan struct{})}
		fctx, f.cancel = context.WithCancel(context.WithoutCancel(ctx))
		fl.active[key] = f
		fl.stats.Batches++
	}
	f.waiting++
	f.size++
	fl.stats.Joined++
	fl.stats.MaxBatch = max(fl.stats.MaxBatch, f.size)
	fl.mu.Unlock()

	if joining {
		select {
		case <-f.done:
			return f.body, f.err
		case <-ctx.Done():
			fl.leave(key, f)
			return nil, ctx.Err()
		}
	}

	// The first arrival encodes inline, on its request's goroutine, so its
	// own departure is observed from the side: it counts out like any
	// waiter, and the encode carries on while someone else is waiting.
	stop := context.AfterFunc(ctx, func() { fl.leave(key, f) })
	fl.encode(fctx, key, f, canonical, minSupport)
	stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.body, f.err
}

// PanicError is what a joined query gets when the encode it waited on
// panicked: the encoding request re-panics, and no waiter is left blocked
// on a flight that will never land.
type PanicError struct{ Value any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("httpserve: the encode panicked: %v", e.Value)
}

// encode runs f's encode and lands the flight, also when the encode
// panics: it is unregistered before its waiters wake, so nobody joins it
// once it is done.
func (fl *flights) encode(ctx context.Context, key flightKey, f *flight, canonical []string, minSupport int64) {
	defer func() {
		v := recover()
		if v != nil {
			f.body, f.err = nil, &PanicError{Value: v}
		}
		fl.mu.Lock()
		if fl.active[key] == f {
			delete(fl.active, key)
		}
		fl.mu.Unlock()
		close(f.done)
		f.cancel()
		if v != nil {
			panic(v)
		}
	}()
	f.body, f.err = EncodeQuery(ctx, fl.backend, canonical, minSupport)
}

// leave counts one waiter out of f. The last one out unregisters the
// flight and cancels its encode.
func (fl *flights) leave(key flightKey, f *flight) {
	fl.mu.Lock()
	f.waiting--
	last := f.waiting == 0
	if last && fl.active[key] == f {
		delete(fl.active, key)
	}
	fl.mu.Unlock()
	if last {
		f.cancel()
	}
}

func (fl *flights) metrics() BatchMetrics {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.stats
}
