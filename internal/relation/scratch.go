package relation

// Scratch is a reusable arena for the sort/partition kernels. Every
// algorithm in the suite bottoms out in SortView/PartitionView, and those
// used to allocate fresh counting-sort scratch (counts, output permutation,
// position table) on every recursive call — a large share of total
// allocations in the paper-figure benchmarks. A Scratch owns all of those
// buffers and grows them monotonically, so steady-state sorting performs
// zero heap allocations.
//
// Ownership rule: one Scratch per worker (goroutine), never shared. The
// buffers are reused across calls with no synchronization, so concurrent
// use from two goroutines corrupts both sorts. A nil *Scratch is valid
// everywhere and falls back to per-call allocation, which keeps one-shot
// callers (tests, small tools) simple.
//
// The free-list pools (Ints/Int32s/Uint32s) hand out buffers with stack
// discipline: recursive kernels grab at each level and release on the way
// out, so the pool's high-water mark is bounded by the recursion depth and
// every buffer converges to the largest size requested at its level.
type Scratch struct {
	counts []int32 // counting-sort histogram / cumulative bounds, card+1 long
	pos    []int32 // counting-sort running positions, card long
	out    []int32 // permutation output buffer, run long
	keyA   []uint32
	keyB   []uint32 // radix key buffers, run long

	ints   [][]int
	int32s [][]int32
	u32s   [][]uint32
}

// NewScratch returns an empty arena; buffers grow on demand and are
// retained for reuse.
func NewScratch() *Scratch { return &Scratch{} }

// countsBuf returns a zeroed []int32 of length n.
func (s *Scratch) countsBuf(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
		return s.counts
	}
	b := s.counts[:n]
	clear(b)
	return b
}

// posBuf returns an uninitialized []int32 of length n (callers overwrite
// every element before reading).
func (s *Scratch) posBuf(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
	}
	return s.pos[:n]
}

// outBuf returns an uninitialized []int32 of length n.
func (s *Scratch) outBuf(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if cap(s.out) < n {
		s.out = make([]int32, n)
	}
	return s.out[:n]
}

// keyBufs returns two uninitialized []uint32 of length n (radix ping-pong
// key buffers).
func (s *Scratch) keyBufs(n int) ([]uint32, []uint32) {
	if s == nil {
		return make([]uint32, n), make([]uint32, n)
	}
	if cap(s.keyA) < n {
		s.keyA = make([]uint32, n)
	}
	if cap(s.keyB) < n {
		s.keyB = make([]uint32, n)
	}
	return s.keyA[:n], s.keyB[:n]
}

// Ints returns a length-0 []int with capacity at least n from the pool.
// Return it with PutInts when done so it can be reused.
func (s *Scratch) Ints(n int) []int {
	if s == nil {
		return make([]int, 0, n)
	}
	if k := len(s.ints); k > 0 {
		b := s.ints[k-1]
		s.ints[k-1] = nil
		s.ints = s.ints[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
		return make([]int, 0, n) // too small: replace with one sized to this level's demand
	}
	return make([]int, 0, n)
}

// PutInts returns a buffer obtained from Ints to the pool. Calling it with
// a buffer from a nil Scratch (or not at all) is harmless — the buffer is
// simply not reused.
func (s *Scratch) PutInts(b []int) {
	if s == nil || b == nil {
		return
	}
	s.ints = append(s.ints, b)
}

// Int32s returns a length-0 []int32 with capacity at least n from the pool.
func (s *Scratch) Int32s(n int) []int32 {
	if s == nil {
		return make([]int32, 0, n)
	}
	if k := len(s.int32s); k > 0 {
		b := s.int32s[k-1]
		s.int32s[k-1] = nil
		s.int32s = s.int32s[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
		return make([]int32, 0, n) // too small: replace with one sized to this level's demand
	}
	return make([]int32, 0, n)
}

// PutInt32s returns a buffer obtained from Int32s to the pool.
func (s *Scratch) PutInt32s(b []int32) {
	if s == nil || b == nil {
		return
	}
	s.int32s = append(s.int32s, b)
}

// Uint32s returns a length-0 []uint32 with capacity at least n from the
// pool.
func (s *Scratch) Uint32s(n int) []uint32 {
	if s == nil {
		return make([]uint32, 0, n)
	}
	if k := len(s.u32s); k > 0 {
		b := s.u32s[k-1]
		s.u32s[k-1] = nil
		s.u32s = s.u32s[:k-1]
		if cap(b) >= n {
			return b[:0]
		}
		return make([]uint32, 0, n) // too small: replace with one sized to this level's demand
	}
	return make([]uint32, 0, n)
}

// PutUint32s returns a buffer obtained from Uint32s to the pool.
func (s *Scratch) PutUint32s(b []uint32) {
	if s == nil || b == nil {
		return
	}
	s.u32s = append(s.u32s, b)
}
