package icebergcube

import (
	"fmt"

	"icebergcube/internal/agg"
	"icebergcube/internal/online"
)

// OnlineQuery describes one online iceberg group-by (Chapter 5): a single
// GROUP BY over a data set treated as too large for memory, answered
// instantly and refined as blocks stream in.
type OnlineQuery struct {
	// Dims names the GROUP BY attributes (must be non-empty).
	Dims []string
	// MinSupport is the iceberg threshold (default 1).
	MinSupport int64
	// Workers is the cluster size (default 8).
	Workers int
	// BufferTuples is the per-processor block size per synchronized step
	// (default 8000, the paper's setting).
	BufferTuples int
	// Seed fixes sampling and skip-list coins.
	Seed int64
	// OnProgress, if set, receives a refinement snapshot after every
	// step.
	OnProgress func(OnlineProgress)
}

// OnlineProgress is one progressive answer.
type OnlineProgress struct {
	// Step counts synchronized steps; Fraction is the share of the data
	// processed.
	Step     int
	Fraction float64
	// Cells is the number of distinct cells seen so far;
	// QualifyingCells of those, the cells whose scaled running estimate
	// already passes the threshold.
	Cells           int
	QualifyingCells int
	// VirtualSeconds is the simulated elapsed time.
	VirtualSeconds float64
}

// OnlineResult is the completed exact answer.
type OnlineResult struct {
	// Cells are the qualifying cells of the group-by, in ascending order
	// of their dictionary-code tuples — the canonical order Result.Cuboid
	// returns.
	Cells []Cell
	// Makespan is the simulated completion time; Steps the number of
	// synchronized steps taken.
	Makespan float64
	Steps    int
}

// ComputeOnline runs POL to completion.
func ComputeOnline(ds *Dataset, q OnlineQuery) (*OnlineResult, error) {
	if len(q.Dims) == 0 {
		return nil, fmt.Errorf("icebergcube: OnlineQuery.Dims must name at least one attribute")
	}
	dims, err := ds.resolveDims(q.Dims)
	if err != nil {
		return nil, err
	}
	if q.MinSupport <= 0 {
		q.MinSupport = 1
	}
	if q.Workers <= 0 {
		q.Workers = 8
	}
	var progress func(online.Snapshot)
	if q.OnProgress != nil {
		progress = func(s online.Snapshot) {
			q.OnProgress(OnlineProgress{
				Step:            s.Step,
				Fraction:        s.Fraction,
				Cells:           s.Cells,
				QualifyingCells: s.QualifyingCells,
				VirtualSeconds:  s.VirtualSeconds,
			})
		}
	}
	res, err := online.Run(online.Query{
		Rel:          ds.rel,
		Dims:         dims,
		Cond:         agg.MinSupport(q.MinSupport),
		Workers:      q.Workers,
		BufferTuples: q.BufferTuples,
		Seed:         q.Seed,
		Progress:     progress,
	})
	if err != nil {
		return nil, err
	}
	attrs := make([]string, len(dims))
	for i, d := range dims {
		attrs[i] = ds.rel.Name(d)
	}
	keys, states := res.Cells.CuboidColumns(res.Mask)
	w := len(dims)
	cells := make([]Cell, 0, len(states))
	for i, st := range states {
		codes := keys[i*w : (i+1)*w]
		values := make([]string, len(codes))
		for i, c := range codes {
			values[i] = ds.decode(dims[i], c)
		}
		cells = append(cells, Cell{
			Attrs:  attrs,
			Values: values,
			Count:  st.Count,
			Sum:    st.Value(agg.Sum),
			Min:    st.Value(agg.Min),
			Max:    st.Value(agg.Max),
			Avg:    st.Value(agg.Avg),
		})
	}
	return &OnlineResult{Cells: cells, Makespan: res.Makespan, Steps: res.Steps}, nil
}
