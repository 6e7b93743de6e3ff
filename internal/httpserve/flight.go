package httpserve

import (
	"context"
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
	f.body, f.err = EncodeQuery(fctx, fl.backend, canonical, minSupport)
	stop()
	fl.mu.Lock()
	if fl.active[key] == f {
		delete(fl.active, key)
	}
	fl.mu.Unlock()
	close(f.done)
	f.cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.body, f.err
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
