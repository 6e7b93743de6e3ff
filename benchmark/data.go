package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	icebergcube "icebergcube"
	"icebergcube/internal/gen"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
)

// The database is fixed: the data seed is not the workload seed. -seed
// drives only the op sequence (Zipf draws, shuffles, mutation rows), so
// two seeds run different request streams against the same cube.
const (
	dataSeed    = 2001
	minSupport  = 2 // every query and every batch job
	cubeWorkers = 8 // the paper's baseline cluster size
	zipfS       = 1.1
	batchRows   = 64 // appended rows per /v1/mutate batch

	// The batch cube is the paper's baseline (9 dimensions, cardinality
	// product 10^13) cut to 7 dimensions at the same product per
	// dimension: 9 take 4.4 s a job here, and a job has to run three times
	// a run for its median to repeat.
	batchDimCount = 7
	batchLog10    = 10
)

// sizes are the frozen op counts of one scale. The full counts were
// calibrated once on a 2-core box so that the timed part of every
// workload takes about ten seconds at -seconds 10; -seconds scales the
// per-pass counts linearly, never the data.
type sizes struct {
	tuples int
	// Per timed pass (a run makes one warm-up pass and timedPasses timed).
	hotOps, thrashOps, coldOps int
	commits                    int // serve_write batches per pass
	// recover: logged commits in the history, recoveries per pass.
	history, recovers        int
	thrashBudget, coldBudget int64
	oocLimit                 int64
}

var (
	fullSizes = sizes{
		tuples: 176631, // the paper's weather relation
		hotOps: 1200, thrashOps: 128, coldOps: 64,
		commits: 32,
		history: 40, recovers: 2,
		thrashBudget: 4 << 20, coldBudget: 1 << 20, oocLimit: 2 << 20,
	}
	tinySizes = sizes{
		tuples: 4000,
		hotOps: 48, thrashOps: 64, coldOps: 64,
		commits: 6,
		history: 5, recovers: 2,
		thrashBudget: 64 << 10, coldBudget: 64 << 10, oocLimit: 256 << 10,
	}
)

// scaled returns n stretched by seconds/10, at least lo.
func scaled(n int, seconds float64, lo int) int {
	v := int(float64(n)*seconds/10 + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// inputs is the fixed database plus the two dimension selections.
type inputs struct {
	rel       *relation.Relation // the same tuples ds wraps, for the internal layers
	ds        *icebergcube.Dataset
	serveDims []string
	serveIdx  []int // serveDims as column indices of rel
	batchDims []string
	batchIdx  []int
}

func newInputs(tuples int) *inputs {
	in := &inputs{
		rel: gen.Weather(tuples, dataSeed),
		ds:  icebergcube.SyntheticWeather(tuples, dataSeed),
	}
	in.serveIdx = gen.PickDimsByProduct(in.rel, 6, 7)
	in.batchIdx = gen.PickDimsByProduct(in.rel, batchDimCount, batchLog10)
	for _, d := range in.serveIdx {
		in.serveDims = append(in.serveDims, in.rel.Name(d))
	}
	for _, d := range in.batchIdx {
		in.batchDims = append(in.batchDims, in.rel.Name(d))
	}
	return in
}

// cuboid is one group-by of the serving cube as the clients address it.
type cuboid struct {
	mask    lattice.Mask // bit i = serveDims[i]
	groupBy []string
	path    string // request URI
	cells   int    // cells in the min_support=2 answer at version 1
}

// allCuboids enumerates the 2^k group-bys of dims in mask order.
func allCuboids(dims []string) []cuboid {
	out := make([]cuboid, 1<<len(dims))
	for m := range out {
		c := cuboid{mask: lattice.Mask(m)}
		for _, p := range c.mask.Dims() {
			c.groupBy = append(c.groupBy, dims[p])
		}
		c.path = "/v1/query?min_support=" + strconv.Itoa(minSupport)
		if len(c.groupBy) > 0 {
			c.path += "&group_by=" + strings.Join(c.groupBy, ",")
		}
		out[m] = c
	}
	return out
}

// byPopularity orders cuboid indices by ascending answer size, ties by
// mask: coarse roll-ups are the popular ones, and the rank never depends
// on the workload seed.
func byPopularity(cubs []cuboid) []int {
	rank := make([]int, len(cubs))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return cubs[rank[a]].cells < cubs[rank[b]].cells })
	return rank
}

// zipfOps returns n cuboid indices Zipf(s=1.1) over the popularity
// rank: rank k is asked for n·p(k) times, p(k) ∝ (k+1)^-1.1, rounded by
// largest remainder, in seeded random order. The seed decides when each
// query comes, not how many of each there are: independent draws would
// let the handful of 100k-cell answers, which carry most of the bytes,
// swing a pass's throughput by a fifth from seed to seed.
func zipfOps(rng *rand.Rand, rank []int, n int) []int {
	weight := make([]float64, len(rank))
	var total float64
	for k := range weight {
		weight[k] = math.Pow(float64(k+1), -zipfS)
		total += weight[k]
	}
	ops := make([]int, 0, n)
	type rem struct {
		k    int
		frac float64
	}
	rems := make([]rem, len(rank))
	for k, w := range weight {
		exact := float64(n) * w / total
		whole := int(exact)
		for i := 0; i < whole; i++ {
			ops = append(ops, rank[k])
		}
		rems[k] = rem{k, exact - float64(whole)}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; len(ops) < n; i++ {
		ops = append(ops, rank[rems[i].k])
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// uniformOps returns back-to-back seeded permutations of all the
// cuboids, n ops rounded to whole permutations, so every pass of every
// seed asks for each cuboid equally often and only the order — hence the
// cache's eviction sequence — differs.
func uniformOps(rng *rand.Rand, cuboids, n int) []int {
	rounds := (n + cuboids/2) / cuboids
	if rounds < 1 {
		rounds = 1
	}
	ops := make([]int, 0, rounds*cuboids)
	for i := 0; i < rounds; i++ {
		ops = append(ops, rng.Perm(cuboids)...)
	}
	return ops
}

// mutation is one /v1/mutate batch in both of the forms the write ladder
// needs: value strings for the edge and the root API, codes for ingest.
type mutation struct {
	rows [][]string
	keys []uint32 // row-major codes over serveDims
	meas []float64
}

// mutations draws n append batches. Each value is copied from a random
// base row of its own column, so appended rows follow the per-dimension
// skew of the data but mostly land in new leaf cells.
func mutations(rng *rand.Rand, in *inputs, n int) []mutation {
	out := make([]mutation, n)
	for b := range out {
		m := mutation{rows: make([][]string, batchRows), meas: make([]float64, batchRows)}
		for r := range m.rows {
			row := make([]string, len(in.serveIdx))
			for j, d := range in.serveIdx {
				code := in.rel.Value(d, rng.Intn(in.rel.Len()))
				m.keys = append(m.keys, code)
				row[j] = strconv.FormatUint(uint64(code), 10)
			}
			m.rows[r] = row
			m.meas[r] = float64(rng.Intn(1000))
		}
		out[b] = m
	}
	return out
}

// fingerprint is the write workloads' op sequence as the determinism
// test sees it: the first batch's codes.
func fingerprint(muts []mutation) []int {
	seq := make([]int, len(muts[0].keys))
	for i, k := range muts[0].keys {
		seq[i] = int(k)
	}
	return seq
}
