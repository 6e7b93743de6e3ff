package segment

import "sync"

// Source serves a Table as a streamed leaf for the serving layer (it
// satisfies serve.ColdSource): scans project onto the requested dimensions
// and yield them densely, in request order, and the measured I/O of every
// scan accumulates for IOStats. Safe for concurrent scans.
type Source struct {
	Tab *Table

	mu sync.Mutex
	io IOStats
}

// Width is the number of dimensions.
func (s *Source) Width() int { return len(s.Tab.Names()) }

// Rows is the table's row count.
func (s *Source) Rows() int { return int(s.Tab.Rows()) }

// Scan streams the given dimension columns plus the measure, chunk by
// chunk. A nil dims reads the measure only.
func (s *Source) Scan(dims []int, yield func(cols [][]uint32, meas []float64) error) error {
	var st IOStats
	cols := dims
	if cols == nil {
		cols = []int{} // ScanOptions reads nil as "all columns"
	}
	dense := make([][]uint32, len(dims))
	err := s.Tab.Scan(ScanOptions{Cols: cols, Meas: true, Stats: &st}, func(ch *Chunk) error {
		for i, d := range dims {
			dense[i] = ch.Cols[d]
		}
		return yield(dense, ch.Meas)
	})
	s.mu.Lock()
	s.io.Add(st)
	s.mu.Unlock()
	return err
}

// IOStats returns the measured read-side cost of all scans so far.
func (s *Source) IOStats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.io
}
