package oracle

import (
	"fmt"
	"sort"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/lattice"
	"icebergcube/internal/relation"
	"icebergcube/internal/results"
)

// This file holds the metamorphic properties: relations between *pairs* of
// runs (or between a cube and itself) that must hold for any input, so they
// need no ground truth and compose with fuzzing. Each check returns "" on
// success and a human-readable discrepancy otherwise.

// CheckMinSupportMonotone verifies that raising the iceberg threshold only
// removes cells: the cube at COUNT>=hi must equal the cube at COUNT>=lo
// filtered by COUNT>=hi, cell states included.
func CheckMinSupportMonotone(a Algo, run core.Run, lo, hi int64) string {
	if lo > hi {
		lo, hi = hi, lo
	}
	rlo, rhi := run, run
	rlo.Cond = agg.MinSupport(lo)
	rhi.Cond = agg.MinSupport(hi)
	low, err := RunSet(a, rlo)
	if err != nil {
		return fmt.Sprintf("%s at minsup %d failed: %v", a.Name, lo, err)
	}
	high, err := RunSet(a, rhi)
	if err != nil {
		return fmt.Sprintf("%s at minsup %d failed: %v", a.Name, hi, err)
	}
	if diff := low.Filter(agg.MinSupport(hi)).Diff(high); diff != "" {
		return fmt.Sprintf("%s: cube@minsup=%d filtered to %d != cube@minsup=%d: %s", a.Name, lo, hi, hi, diff)
	}
	return ""
}

// CheckPermutationInvariance verifies that reordering the cube dimensions
// only relabels cuboids: the cube over perm(Dims), with every mask and key
// mapped back through perm, must equal the cube over Dims.
func CheckPermutationInvariance(a Algo, run core.Run, perm []int) string {
	if len(perm) != len(run.Dims) {
		return fmt.Sprintf("perm length %d != %d dims", len(perm), len(run.Dims))
	}
	base, err := RunSet(a, run)
	if err != nil {
		return fmt.Sprintf("%s base run failed: %v", a.Name, err)
	}
	permuted := run
	permuted.Dims = make([]int, len(run.Dims))
	for i, p := range perm {
		permuted.Dims[i] = run.Dims[p]
	}
	got, err := RunSet(a, permuted)
	if err != nil {
		return fmt.Sprintf("%s permuted run failed: %v", a.Name, err)
	}
	remapped := remapPermutation(got, perm)
	if diff := base.Diff(remapped); diff != "" {
		return fmt.Sprintf("%s: cube over permuted dims %v differs after remapping: %s", a.Name, perm, diff)
	}
	return ""
}

// remapPermutation maps a cell set computed over positions perm[i] back to
// the identity position space: permuted position i corresponds to original
// position perm[i], and keys are re-sorted into ascending original
// position order.
func remapPermutation(s *results.Set, perm []int) *results.Set {
	out := results.NewSet()
	type pv struct {
		pos int
		val uint32
	}
	for _, m := range s.Masks() {
		pos := m.Dims()
		keys, states := s.CuboidColumns(m)
		for c, st := range states {
			key := keys[c*len(pos) : (c+1)*len(pos)]
			pairs := make([]pv, len(pos))
			var mask lattice.Mask
			for i, p := range pos {
				op := perm[p]
				mask |= 1 << uint(op)
				pairs[i] = pv{op, key[i]}
			}
			sort.Slice(pairs, func(a, b int) bool { return pairs[a].pos < pairs[b].pos })
			nk := make([]uint32, len(pairs))
			for i, p := range pairs {
				nk[i] = p.val
			}
			out.WriteCell(mask, nk, st)
		}
	}
	return out
}

// CheckRowDuplication verifies count/sum linearity: appending k copies of
// every row multiplies every cell's COUNT and SUM by k+1 and leaves
// MIN/MAX unchanged, and the iceberg cube at COUNT >= (k+1)·s over the
// duplicated relation equals the scaled cube at COUNT >= s over the
// original.
func CheckRowDuplication(a Algo, run core.Run, minsup int64, k int) string {
	factor := int64(k + 1)
	base := run
	base.Cond = agg.MinSupport(minsup)
	want, err := RunSet(a, base)
	if err != nil {
		return fmt.Sprintf("%s base run failed: %v", a.Name, err)
	}
	dup := run
	dup.Rel = duplicateRows(run.Rel, k)
	dup.Cond = agg.MinSupport(factor * minsup)
	got, err := RunSet(a, dup)
	if err != nil {
		return fmt.Sprintf("%s duplicated run failed: %v", a.Name, err)
	}
	if diff := scaleStates(want, factor).Diff(got); diff != "" {
		return fmt.Sprintf("%s: cube over %d× duplicated rows differs from scaled cube: %s", a.Name, factor, diff)
	}
	return ""
}

// duplicateRows returns rel with k extra copies of every row appended.
func duplicateRows(rel *relation.Relation, k int) *relation.Relation {
	names := make([]string, rel.NumDims())
	cards := make([]int, rel.NumDims())
	for d := 0; d < rel.NumDims(); d++ {
		names[d] = rel.Name(d)
		cards[d] = rel.Card(d)
	}
	out := relation.New(names, cards)
	vals := make([]uint32, rel.NumDims())
	for copyN := 0; copyN <= k; copyN++ {
		for row := 0; row < rel.Len(); row++ {
			for d := range vals {
				vals[d] = rel.Value(d, row)
			}
			out.Append(vals, rel.Measure(row))
		}
	}
	return out
}

// scaleStates multiplies every cell's COUNT and SUM by factor (MIN/MAX are
// duplication-invariant).
func scaleStates(s *results.Set, factor int64) *results.Set {
	out := results.NewSet()
	for _, m := range s.Masks() {
		keys, states := s.CuboidColumns(m)
		w := m.Count()
		for i, st := range states {
			st.Count *= factor
			st.Sum *= float64(factor)
			out.WriteCell(m, keys[i*w:(i+1)*w], st)
		}
	}
	return out
}

// WorkerVariant is one scheduling configuration of the invariance sweep.
type WorkerVariant struct {
	Workers   int
	Parallel  bool
	Seed      int64
	TaskRatio int
}

// CheckWorkerInvariance verifies the cube is independent of scheduling:
// every variant (worker count, parallel/virtual runner, seed, task ratio)
// must produce exactly the reference cells.
func CheckWorkerInvariance(a Algo, run core.Run, variants []WorkerVariant) string {
	want, err := RunSet(a, run)
	if err != nil {
		return fmt.Sprintf("%s reference run failed: %v", a.Name, err)
	}
	for _, v := range variants {
		r := run
		r.Workers = v.Workers
		r.Parallel = v.Parallel
		if v.Seed != 0 {
			r.Seed = v.Seed
		}
		if v.TaskRatio != 0 {
			r.TaskRatio = v.TaskRatio
		}
		r.Cluster.Machines = nil // re-derive for the new worker count
		got, err := RunSet(a, r)
		if err != nil {
			return fmt.Sprintf("%s variant %+v failed: %v", a.Name, v, err)
		}
		if diff := want.Diff(got); diff != "" {
			return fmt.Sprintf("%s: variant %+v changed the cube: %s", a.Name, v, diff)
		}
	}
	return ""
}

// CheckRollupConsistency verifies the lattice's defining identity on a
// *full* cube (COUNT >= 1): aggregating any cuboid's cells onto an
// immediate parent (one GROUP BY attribute dropped) must reproduce the
// parent cuboid exactly — counts are "prefix sums" of their children.
// set must have been computed with MinSupport(1) over ndims dimensions.
func CheckRollupConsistency(set *results.Set, ndims int) string {
	for _, m := range lattice.All(ndims) {
		pos := m.Dims()
		keys, states := set.CuboidColumns(m)
		for _, drop := range pos {
			parent := m &^ (1 << uint(drop))
			want := results.NewSet()
			for c, st := range states {
				key := keys[c*len(pos) : (c+1)*len(pos)]
				pk := make([]uint32, 0, len(key)-1)
				for i, p := range pos {
					if p != drop {
						pk = append(pk, key[i])
					}
				}
				want.WriteCell(parent, pk, st)
			}
			actual := results.NewSet()
			pKeys, pStates := set.CuboidColumns(parent)
			for c, st := range pStates {
				actual.WriteCell(parent, pKeys[c*(len(pos)-1):(c+1)*(len(pos)-1)], st)
			}
			if diff := want.Diff(actual); diff != "" {
				return fmt.Sprintf("cuboid %b rolled up to parent %b mismatches: %s", m, parent, diff)
			}
		}
	}
	return ""
}
