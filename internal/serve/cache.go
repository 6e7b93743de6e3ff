package serve

import (
	"container/list"
	"sync"

	"icebergcube/internal/lattice"
)

// cache is the byte-budgeted store of computed (non-leaf) cuboids. The
// leaf lives outside it and is never evicted; everything here is
// derivable again, so eviction only costs recomputation. All operations
// are guarded by one mutex — an RWMutex buys nothing because even lookups
// mutate the recency list.
//
// Two eviction disciplines share the structure. LRU (the default) evicts
// from the recency tail and admits unconditionally under the budget.
// Adaptive eviction is cost-aware: every resident carries a retained-
// benefit-per-byte score (installed by the re-planner, or the admission
// score for cuboids admitted between plans) and the victim is always the
// lowest-scored resident — and only if it scores strictly below the
// incoming cuboid, so a one-off bulky query can never wash out a hot
// working set. The recency list is maintained in both modes (Resident's
// order feeds the commit fold and Warm).
type cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	byMask map[lattice.Mask]*list.Element
	// gen counts invalidations (reset, remove). An admission carries the
	// generation its computation started under; a stale admission is
	// rejected so that a cuboid computed before an invalidation can never
	// be resurrected after it (see Server.compute).
	gen uint64

	// adaptive switches eviction to lowest-score-first; seed breaks score
	// ties deterministically (see tieKey).
	adaptive bool
	seed     int64

	evictions    int64
	evictedBytes int64
	admitted     int64
	rejected     int64
}

type centry struct {
	mask lattice.Mask
	cub  *Cuboid
	// score is the retained benefit per byte under the adaptive policy
	// (unused by LRU). The re-planner overwrites it wholesale; between
	// plans a fresh admission carries its admission score.
	score float64
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, ll: list.New(), byMask: make(map[lattice.Mask]*list.Element)}
}

// get returns the resident cuboid for m, promoting it to most recent.
func (c *cache) get(m lattice.Mask) (*Cuboid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byMask[m]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*centry).cub, true
}

// peek reports residency without promoting recency (the re-planner and
// background fills probe with it so speculative work does not distort the
// LRU order).
func (c *cache) peek(m lattice.Mask) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byMask[m]
	return ok
}

// residentSet returns the resident masks as a set.
func (c *cache) residentSet() map[lattice.Mask]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[lattice.Mask]bool, len(c.byMask))
	for m := range c.byMask {
		out[m] = true
	}
	return out
}

// add admits cub under the byte budget, evicting entries until it fits.
// A cuboid larger than the whole budget is rejected outright (the caller
// still serves it, it just isn't retained), so the resident-bytes
// invariant bytes ≤ budget holds at all times. Returns whether the cuboid
// is now resident and how many entries were evicted.
//
// LRU mode evicts from the recency tail unconditionally. Adaptive mode
// selects the victim set up front (lowest scores first) and admits only
// if every victim scores strictly below the incoming cuboid — otherwise
// the incoming cuboid is rejected with no evictions at all (cost-aware
// admission control that cannot thrash the working set). The pinned leaf
// is never a candidate: it does not live in the cache at all.
//
// gen must be the value of generation() observed before the cuboid's
// computation began; an intervening reset/remove rejects the admission.
func (c *cache) add(m lattice.Mask, cub *Cuboid, gen uint64, score float64) (admitted bool, evicted int) {
	size := cub.SizeBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		c.rejected++
		return false, 0
	}
	if el, ok := c.byMask[m]; ok {
		// A concurrent filler won the race; keep the resident copy (but
		// take the fresher score — a re-plan may have run in between).
		c.ll.MoveToFront(el)
		if c.adaptive {
			el.Value.(*centry).score = score
		}
		return true, 0
	}
	if size > c.budget {
		c.rejected++
		return false, 0
	}
	if c.adaptive {
		// Two-phase: pick the full victim set first (lowest scores first)
		// and admit only if every victim scores strictly below the
		// newcomer — otherwise reject WITHOUT evicting anyone, so a
		// doomed admission can never thrash the working set on its way
		// to rejection.
		var victims []*list.Element
		freed := int64(0)
		for c.bytes-freed+size > c.budget {
			el := c.victimLocked(victims)
			if el == nil || el.Value.(*centry).score >= score {
				c.rejected++
				return false, 0
			}
			victims = append(victims, el)
			freed += el.Value.(*centry).cub.SizeBytes()
		}
		for _, el := range victims {
			c.evict(el)
			evicted++
		}
	} else {
		for c.bytes+size > c.budget {
			el := c.ll.Back()
			if el == nil {
				break
			}
			c.evict(el)
			evicted++
		}
	}
	c.byMask[m] = c.ll.PushFront(&centry{mask: m, cub: cub, score: score})
	c.bytes += size
	c.admitted++
	return true, evicted
}

// victimLocked returns the lowest-scored resident not already in exclude
// (ties broken by seeded tieKey, then mask, so victim choice is a pure
// function of the resident set). Caller holds the lock.
func (c *cache) victimLocked(exclude []*list.Element) *list.Element {
	var best *list.Element
	var bestE *centry
scan:
	for el := c.ll.Front(); el != nil; el = el.Next() {
		for _, x := range exclude {
			if x == el {
				continue scan
			}
		}
		e := el.Value.(*centry)
		if best == nil {
			best, bestE = el, e
			continue
		}
		switch {
		case e.score < bestE.score:
		case e.score > bestE.score:
			continue
		case tieKey(c.seed, e.mask) > tieKey(c.seed, bestE.mask):
		case tieKey(c.seed, e.mask) < tieKey(c.seed, bestE.mask) || e.mask >= bestE.mask:
			continue
		}
		best, bestE = el, e
	}
	return best
}

// setPolicy switches the eviction discipline (scores persist; a re-plan
// follows immediately in the adaptive case and rewrites them).
func (c *cache) setPolicy(adaptive bool, seed int64) {
	c.mu.Lock()
	c.adaptive = adaptive
	c.seed = seed
	c.mu.Unlock()
}

// setScores installs a re-plan's retained-benefit scores wholesale;
// residents the plan did not score fall to 0 and become the first
// victims.
func (c *cache) setScores(scores map[lattice.Mask]float64) {
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*centry)
		e.score = scores[e.mask]
	}
	c.mu.Unlock()
}

// evict removes one element (caller holds the lock).
func (c *cache) evict(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.byMask, e.mask)
	c.bytes -= e.cub.SizeBytes()
	c.evictions++
	c.evictedBytes += e.cub.SizeBytes()
}

// remove drops one mask if resident. It always advances the generation —
// even when the mask is not resident — because an in-flight computation
// for it may be about to admit a copy the caller wants gone.
func (c *cache) remove(m lattice.Mask) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if el, ok := c.byMask[m]; ok {
		e := el.Value.(*centry)
		c.ll.Remove(el)
		delete(c.byMask, e.mask)
		c.bytes -= e.cub.SizeBytes()
	}
}

// reset drops every resident cuboid (metrics are kept).
func (c *cache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	clear(c.byMask)
	c.bytes = 0
}

// generation returns the invalidation counter; see add.
func (c *cache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// setBudget installs a new byte budget, evicting from the LRU tail until
// the resident set fits.
func (c *cache) setBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evict(back)
	}
}

// resident returns the resident cuboids in recency order (most recently
// used first). The snapshot-commit path folds each of them forward into
// the next version's cache.
func (c *cache) resident() []*Cuboid {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Cuboid, 0, len(c.byMask))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*centry).cub)
	}
	return out
}
