package exp

import (
	"fmt"
	"math/bits"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/cost"
	"icebergcube/internal/gen"
	"icebergcube/internal/online"
)

// Fig3_6 — I/O time to write the cuboids: RP (depth-first writing) vs BPP
// (breadth-first writing), over processor counts. The paper reports RP's
// total I/O more than 5× BPP's on the baseline.
func Fig3_6(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	t := &Table{
		ID:     "fig3.6",
		Title:  "I/O time: depth-first (RP) vs breadth-first (BPP) writing",
		XLabel: "processors",
		YLabel: "total I/O seconds",
		Series: []Series{{Name: "RP"}, {Name: "BPP"}},
	}
	for _, n := range []int{2, 4, 8, 16} {
		run := baselineRun(c, rel, dims)
		run.Workers = n
		run.Cluster = cost.BaselineCluster(n)
		for i, name := range []string{"RP", "BPP"} {
			rep, err := runCube(name, run)
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: float64(n), Y: rep.WriteIOSeconds()})
		}
	}
	return t, nil
}

// Fig4_1 — load distribution across the 8 baseline processors for all five
// algorithms. ASL/AHT/PT should be flat; RP and BPP skewed.
func Fig4_1(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	t := &Table{
		ID:     "fig4.1",
		Title:  "Load balancing on 8 processors",
		XLabel: "processor",
		YLabel: "virtual seconds of load",
	}
	for _, name := range CubeAlgorithms {
		rep, err := runCube(name, baselineRun(c, rel, dims))
		if err != nil {
			return nil, err
		}
		s := Series{Name: name}
		for i, load := range rep.Loads() {
			s.Points = append(s.Points, Point{X: float64(i + 1), Y: load})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// Fig4_2 — wall clock vs number of processors (1–16) for all five
// algorithms.
func Fig4_2(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	t := &Table{
		ID:     "fig4.2",
		Title:  "Scalability with the number of processors",
		XLabel: "processors",
		YLabel: "makespan seconds",
	}
	for _, name := range CubeAlgorithms {
		t.Series = append(t.Series, Series{Name: name})
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		run := baselineRun(c, rel, dims)
		run.Workers = n
		run.Cluster = cost.BaselineCluster(n)
		for i, name := range CubeAlgorithms {
			rep, err := runCube(name, run)
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: float64(n), Y: rep.Makespan})
		}
	}
	return t, nil
}

// Fig4_3 — wall clock vs data-set size (1× to ~6× the baseline tuple
// count, echoing the paper's 176k→1M sweep).
func Fig4_3(c Config) (*Table, error) {
	c = c.withDefaults()
	t := &Table{
		ID:     "fig4.3",
		Title:  "Varying the size of the data set",
		XLabel: "tuples",
		YLabel: "makespan seconds",
	}
	for _, name := range CubeAlgorithms {
		t.Series = append(t.Series, Series{Name: name})
	}
	for _, mult := range []float64{1, 2, 4, 5.66} {
		sc := c
		sc.Tuples = int(float64(c.Tuples) * mult)
		rel, dims := workload(sc)
		run := baselineRun(sc, rel, dims)
		for i, name := range CubeAlgorithms {
			rep, err := runCube(name, run)
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: float64(sc.Tuples), Y: rep.Makespan})
		}
	}
	return t, nil
}

// Fig4_4 — wall clock vs number of cube dimensions (5–13). AHT gets a 10×
// larger table at 13 dimensions, as in the paper, and still loses.
func Fig4_4(c Config) (*Table, error) {
	c = c.withDefaults()
	t := &Table{
		ID:     "fig4.4",
		Title:  "Varying the number of cube dimensions",
		XLabel: "dimensions",
		YLabel: "makespan seconds",
	}
	for _, name := range CubeAlgorithms {
		t.Series = append(t.Series, Series{Name: name})
	}
	for _, d := range []int{5, 7, 9, 11, 13} {
		sc := c
		sc.Dims = d
		rel, dims := workload(sc)
		run := baselineRun(sc, rel, dims)
		for i, name := range CubeAlgorithms {
			var rep *core.Report
			var err error
			if name == "AHT" && d >= 13 {
				// The paper grants AHT a table ten times the input size
				// at 13 dimensions — and it still loses (§4.6).
				rep, err = core.AHTWithBits(run, bits.Len(uint(rel.Len()))+4)
			} else {
				rep, err = runCube(name, run)
			}
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: float64(d), Y: rep.Makespan})
		}
	}
	return t, nil
}

// Fig4_5 — wall clock vs minimum support (1–16), plus the shrinking output
// volume the paper reports (469MB → 86MB → 27MB → 11MB for 1,2,4,8).
func Fig4_5(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	t := &Table{
		ID:     "fig4.5",
		Title:  "Varying the minimum support",
		XLabel: "minsup",
		YLabel: "makespan seconds",
	}
	for _, name := range CubeAlgorithms {
		t.Series = append(t.Series, Series{Name: name})
	}
	out := Series{Name: "outMB"}
	for _, minsup := range []int64{1, 2, 4, 8, 16} {
		run := baselineRun(c, rel, dims)
		run.Cond = agg.MinSupport(minsup)
		for i, name := range CubeAlgorithms {
			rep, err := runCube(name, run)
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: float64(minsup), Y: rep.Makespan})
			if name == "PT" {
				out.Points = append(out.Points, Point{X: float64(minsup), Y: float64(rep.Totals().BytesWritten) / 1e6})
			}
		}
	}
	t.Series = append(t.Series, out)
	return t, nil
}

// Fig4_6 — wall clock vs sparseness: 9-dimension subsets picked so the
// cardinality product's exponent sweeps from dense to sparse.
func Fig4_6(c Config) (*Table, error) {
	c = c.withDefaults()
	rel := gen.Weather(c.Tuples, c.Seed)
	t := &Table{
		ID:     "fig4.6",
		Title:  "Varying the sparseness (cardinality product of the cube dimensions)",
		XLabel: "log10(card product)",
		YLabel: "makespan seconds",
	}
	for _, name := range CubeAlgorithms {
		t.Series = append(t.Series, Series{Name: name})
	}
	for _, exp10 := range []float64{7, 13, 21} {
		dims := gen.PickDimsByProduct(rel, 9, exp10)
		run := baselineRun(c, rel, dims)
		for i, name := range CubeAlgorithms {
			rep, err := runCube(name, run)
			if err != nil {
				return nil, err
			}
			t.Series[i].Points = append(t.Series[i].Points, Point{X: exp10, Y: rep.Makespan})
		}
	}
	return t, nil
}

// Sec5_1 — selective materialization: full ASL recompute at minsup m vs
// precomputing only the root (finest) cuboid at minsup 1 and answering the
// query from it online.
func Sec5_1(c Config) (*Table, error) {
	c = c.withDefaults()
	rel, dims := workload(c)
	t := &Table{
		ID:     "sec5.1",
		Title:  "Selective materialization: full recompute vs leaves-only precompute",
		XLabel: "plan",
		YLabel: "seconds",
	}
	// Plan 1: recompute the full iceberg cube.
	rep, err := runCube("ASL", baselineRun(c, rel, dims))
	if err != nil {
		return nil, err
	}
	// Plan 2: precompute only the finest cuboid (the leaf of the
	// top-down traversal tree) at minsup 1.
	leafRun := baselineRun(c, rel, dims)
	leafRun.Cond = agg.MinSupport(1)
	leaf, err := PrecomputeLeaf(leafRun)
	if err != nil {
		return nil, err
	}
	t.Series = []Series{
		{Name: "seconds", Points: []Point{
			{X: 1, Y: rep.Makespan},
			{X: 2, Y: leaf.Makespan},
		}},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("plan 1 = full ASL recompute at minsup %d; plan 2 = leaves-only precompute at minsup 1 (online answers then aggregate from the leaf cuboid almost instantly)", c.MinSup))
	return t, nil
}

// Fig5_3 — POL wall clock vs processor count on the three clusters of
// §5.4.1 (PIII-500/Ethernet, PII-266/Ethernet, PII-266/Myrinet).
func Fig5_3(c Config) (*Table, error) {
	c = c.withDefaults()
	if c.Tuples == 176631 {
		c.Tuples = 1000000 // the POL experiments use the 1M-tuple data set
	}
	rel := gen.Weather(c.Tuples, c.Seed)
	dims := gen.PickDimsByProduct(rel, 12, 16)
	clusters := []struct {
		name string
		m    cost.Machine
	}{
		{"Cluster1 PIII500/Eth", cost.PIII500()},
		{"Cluster2 PII266/Eth", cost.PII266()},
		{"Cluster3 PII266/Myri", cost.PII266Myrinet()},
	}
	t := &Table{
		ID:     "fig5.3",
		Title:  "POL scalability with the number of processors",
		XLabel: "processors",
		YLabel: "makespan seconds",
	}
	for _, cl := range clusters {
		s := Series{Name: cl.name}
		for _, n := range []int{1, 2, 4, 8} {
			res, err := online.Run(online.Query{
				Rel: rel, Dims: dims,
				Cond:         agg.MinSupport(c.MinSup),
				Workers:      n,
				Cluster:      cost.Homogeneous(cl.name, cl.m, n),
				BufferTuples: 8000,
				Seed:         c.Seed,
			})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: res.Makespan})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// Fig5_4 — POL wall clock vs per-step buffer size.
func Fig5_4(c Config) (*Table, error) {
	c = c.withDefaults()
	if c.Tuples == 176631 {
		c.Tuples = 1000000
	}
	rel := gen.Weather(c.Tuples, c.Seed)
	dims := gen.PickDimsByProduct(rel, 12, 16)
	t := &Table{
		ID:     "fig5.4",
		Title:  "POL scalability with buffer size",
		XLabel: "buffer tuples",
		YLabel: "makespan seconds",
	}
	s := Series{Name: "POL(8 workers)"}
	for _, buf := range []int{1000, 2000, 4000, 8000, 16000} {
		res, err := online.Run(online.Query{
			Rel: rel, Dims: dims,
			Cond:         agg.MinSupport(c.MinSup),
			Workers:      8,
			Cluster:      cost.Homogeneous("PII266/Myrinet", cost.PII266Myrinet(), 8),
			BufferTuples: buf,
			Seed:         c.Seed,
		})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: float64(buf), Y: res.Makespan})
	}
	t.Series = append(t.Series, s)
	return t, nil
}
