package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	icebergcube "icebergcube"
	"icebergcube/internal/httpserve"
	"icebergcube/internal/lattice"
)

// Correctness checks are untimed. Each one counts as an attempted op and
// a mismatch as a failed one, so a wrong cell shows in the same
// failed/attempted pair a refused request does.

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func sameCell(g, w icebergcube.Cell) bool {
	if len(g.Values) != len(w.Values) {
		return false
	}
	for i := range g.Values {
		if g.Values[i] != w.Values[i] {
			return false
		}
	}
	return g.Count == w.Count && near(g.Sum, w.Sum) && near(g.Min, w.Min) && near(g.Max, w.Max) && near(g.Avg, w.Avg)
}

// sameCells compares a served answer with the reference cuboid cell for
// cell, in any order (a reference built from re-encoded rows sorts by
// different codes).
func sameCells(got, want []icebergcube.Cell) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells served, reference has %d", len(got), len(want))
	}
	inOrder := true // the usual case: both sides sort by the same codes
	for i := range got {
		if !sameCell(got[i], want[i]) {
			inOrder = false
			break
		}
	}
	if inOrder {
		return nil
	}
	key := func(values []string) string { return strings.Join(values, "\x00") }
	ref := make(map[string]icebergcube.Cell, len(want))
	for _, c := range want {
		ref[key(c.Values)] = c
	}
	for _, g := range got {
		w, ok := ref[key(g.Values)]
		if !ok {
			return fmt.Errorf("served cell %v is not in the reference", g.Values)
		}
		if !sameCell(g, w) {
			return fmt.Errorf("cell %v: served %+v, reference %+v", g.Values, g, w)
		}
	}
	return nil
}

// refCube is the serving cube computed independently of every serving
// stack: BPP over the rows, where the stacks built their leaf with the
// precompute plan. Result.Cuboid sorts on every call, so a run that
// checks two cubes against one reference keeps the cuboids it has
// already asked for.
type refCube struct {
	res  *icebergcube.Result
	memo map[lattice.Mask][]icebergcube.Cell
}

func reference(ds *icebergcube.Dataset, dims []string) (*refCube, error) {
	res, err := icebergcube.Compute(ds, icebergcube.Query{
		Dims: dims, MinSupport: minSupport, Algorithm: icebergcube.BPP, Workers: cubeWorkers, Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	return &refCube{res: res, memo: make(map[lattice.Mask][]icebergcube.Cell)}, nil
}

func (rc *refCube) cuboid(c cuboid) ([]icebergcube.Cell, error) {
	if cells, ok := rc.memo[c.mask]; ok {
		return cells, nil
	}
	cells, err := rc.res.Cuboid(c.groupBy...)
	if err == nil {
		rc.memo[c.mask] = cells
	}
	return cells, err
}

// answerer returns one group-by's cells and the version they were
// served at.
type answerer func(c cuboid) (uint64, []icebergcube.Cell, error)

// overHTTP asks the stack's listener, as a client would.
func overHTTP(st *stack) answerer {
	return func(c cuboid) (uint64, []icebergcube.Cell, error) {
		body, err := st.fetch(c.path)
		if err != nil {
			return 0, nil, err
		}
		var resp httpserve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, nil, fmt.Errorf("undecodable answer: %w", err)
		}
		cells := make([]icebergcube.Cell, len(resp.Cells))
		for i, w := range resp.Cells {
			cells[i] = icebergcube.Cell{Values: w.Values, Count: w.Count, Sum: w.Sum, Min: w.Min, Max: w.Max, Avg: w.Avg}
		}
		return resp.Version, cells, nil
	}
}

// inProcess asks a cube that has no listener (a recovered one).
func inProcess(m *icebergcube.Materialized) answerer {
	return func(c cuboid) (uint64, []icebergcube.Cell, error) {
		cells, stats, err := m.AnswerStats(c.groupBy, minSupport)
		return stats.Version, cells, err
	}
}

// verifyCube asks for every group-by once and compares it with ref cell
// for cell; every answer must also carry wantVersion.
func (r *run) verifyCube(what string, cubs []cuboid, ask answerer, ref *refCube, wantVersion uint64) {
	for _, c := range cubs {
		r.attempted.Add(1)
		version, cells, err := ask(c)
		if err != nil {
			r.fail("%s %v: %v", what, c.groupBy, err)
			continue
		}
		want, err := ref.cuboid(c)
		if err != nil {
			r.fail("%s %v: reference: %v", what, c.groupBy, err)
			continue
		}
		if version != wantVersion {
			r.fail("%s %v: answered at version %d, want %d", what, c.groupBy, version, wantVersion)
		} else if err := sameCells(cells, want); err != nil {
			r.fail("%s %v: %v", what, c.groupBy, err)
		}
	}
}

// scratchReference recomputes the serving cube from the base rows plus
// every acknowledged append, through FromRows and Compute only.
func scratchReference(in *inputs, acked []mutation) (*refCube, error) {
	n := in.rel.Len()
	rows := make([][]string, 0, n+len(acked)*batchRows)
	meas := make([]float64, 0, cap(rows))
	for i := 0; i < n; i++ {
		row := make([]string, len(in.serveIdx))
		for j, d := range in.serveIdx {
			row[j] = strconv.FormatUint(uint64(in.rel.Value(d, i)), 10)
		}
		rows = append(rows, row)
		meas = append(meas, in.rel.Measure(i))
	}
	for _, m := range acked {
		rows = append(rows, m.rows...)
		meas = append(meas, m.meas...)
	}
	ds, err := icebergcube.FromRows(in.serveDims, rows, meas)
	if err != nil {
		return nil, err
	}
	return reference(ds, in.serveDims)
}
