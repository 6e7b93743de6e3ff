package oracle

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/gen"
)

// testRun builds a small skewed run shared by the property tests.
func testRun(tuples, dims int, minsup int64, workers int, seed int64) core.Run {
	cards := make([]int, dims)
	skew := make([]float64, dims)
	for i := range cards {
		cards[i] = 2 + 3*i
		skew[i] = 1 + float64(i%3)
	}
	rel := gen.Generate(gen.Spec{Cards: cards, Skew: skew, Tuples: tuples, Seed: seed})
	cubeDims := make([]int, dims)
	for i := range cubeDims {
		cubeDims[i] = i
	}
	return core.Run{Rel: rel, Dims: cubeDims, Cond: agg.MinSupport(minsup), Workers: workers, Seed: seed}
}

// TestDifferentialAllAlgorithms: the tentpole gate — every algorithm
// (including the hash-tree) must agree with NaiveCube over a grid of
// shapes, thresholds and worker counts.
func TestDifferentialAllAlgorithms(t *testing.T) {
	grid := []struct {
		tuples, dims int
		minsup       int64
		workers      int
	}{
		{150, 3, 1, 1},
		{300, 3, 2, 2},
		{500, 4, 2, 4},
		{400, 5, 3, 8},
		{250, 6, 2, 3},
	}
	for _, g := range grid {
		t.Run(fmt.Sprintf("t%d_d%d_s%d_w%d", g.tuples, g.dims, g.minsup, g.workers), func(t *testing.T) {
			run := testRun(g.tuples, g.dims, g.minsup, g.workers, int64(g.tuples+g.dims))
			for _, m := range CheckAll(run) {
				t.Errorf("%s", Report(&m))
			}
		})
	}
}

// TestDifferentialKnobs covers the ablation/improvement knobs: extended
// affinity, mixed hash, no affinity, and the parallel goroutine runner
// must not change the cube.
func TestDifferentialKnobs(t *testing.T) {
	base := testRun(400, 4, 2, 4, 17)
	knobs := []struct {
		name string
		mut  func(r *core.Run)
	}{
		{"extended-affinity", func(r *core.Run) { r.ExtendedAffinity = true }},
		{"mixed-hash", func(r *core.Run) { r.MixedHash = true }},
		{"no-affinity", func(r *core.Run) { r.NoAffinity = true }},
		{"parallel", func(r *core.Run) { r.Parallel = true }},
		{"taskratio-5", func(r *core.Run) { r.TaskRatio = 5 }},
	}
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			run := base
			k.mut(&run)
			for _, m := range CheckAll(run) {
				t.Errorf("%s", Report(&m))
			}
		})
	}
}

// TestDifferentialMinSum exercises a non-count condition; the hash-tree is
// skipped automatically (CountOnly).
func TestDifferentialMinSum(t *testing.T) {
	run := testRun(300, 4, 1, 3, 5)
	run.Cond = agg.MinSum(4000)
	for _, m := range CheckAll(run) {
		t.Errorf("%s", Report(&m))
	}
}

// TestMinSupportMonotone: metamorphic property 1 for every algorithm.
func TestMinSupportMonotone(t *testing.T) {
	for _, a := range Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			run := testRun(400, 4, 1, 3, 23)
			for _, hi := range []int64{2, 4, 9} {
				if msg := CheckMinSupportMonotone(a, run, 1, hi); msg != "" {
					t.Errorf("minsup 1→%d: %s", hi, msg)
				}
			}
		})
	}
}

// TestPermutationInvariance: metamorphic property 2 for every algorithm.
func TestPermutationInvariance(t *testing.T) {
	perms := [][]int{{3, 1, 0, 2}, {1, 2, 3, 0}, {3, 2, 1, 0}}
	for _, a := range Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			run := testRun(350, 4, 2, 3, 31)
			for _, p := range perms {
				if msg := CheckPermutationInvariance(a, run, p); msg != "" {
					t.Errorf("perm %v: %s", p, msg)
				}
			}
		})
	}
}

// TestRowDuplication: metamorphic property 3 for every algorithm.
func TestRowDuplication(t *testing.T) {
	for _, a := range Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			run := testRun(250, 4, 1, 3, 41)
			for _, k := range []int{1, 2} {
				if msg := CheckRowDuplication(a, run, 2, k); msg != "" {
					t.Errorf("duplication ×%d: %s", k+1, msg)
				}
			}
		})
	}
}

// TestWorkerInvariance: metamorphic property 4 — the cube must be
// independent of worker count (1..16), runner choice, seed, and task
// ratio, for every algorithm.
func TestWorkerInvariance(t *testing.T) {
	var variants []WorkerVariant
	for w := 1; w <= 16; w++ {
		variants = append(variants, WorkerVariant{Workers: w, Seed: int64(w)})
	}
	for _, w := range []int{1, 3, 8, 16} {
		variants = append(variants,
			WorkerVariant{Workers: w, Parallel: true, Seed: 99},
			WorkerVariant{Workers: w, TaskRatio: 7, Seed: 7},
			WorkerVariant{Workers: w, Parallel: true, TaskRatio: 3, Seed: 1234},
		)
	}
	for _, a := range Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			run := testRun(300, 4, 2, 2, 53)
			if msg := CheckWorkerInvariance(a, run, variants); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestRollupConsistency: metamorphic property 5 — on a full cube every
// cuboid rolls up exactly onto each of its lattice parents.
func TestRollupConsistency(t *testing.T) {
	run := testRun(300, 4, 1, 3, 61)
	for _, a := range Algorithms() {
		t.Run(a.Name, func(t *testing.T) {
			set, err := RunSet(a, run)
			if err != nil {
				t.Fatal(err)
			}
			if msg := CheckRollupConsistency(set, len(run.Dims)); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestEncodeRoundTrip: Decode(Encode(s)) must reproduce the spec exactly,
// and decoding must reject inputs too short to hold one row.
func TestEncodeRoundTrip(t *testing.T) {
	specs := []*Spec{
		{Cards: []int{2}, Rows: [][]uint32{{1}}, Meas: []uint8{3}, MinSup: 1, Workers: 1, Seed: 0},
		{Cards: []int{3, 5, 8}, Rows: [][]uint32{{0, 4, 7}, {2, 0, 0}, {1, 1, 1}},
			Meas: []uint8{0, 20, 5}, MinSup: 4, Workers: 8, Seed: 255},
	}
	for i, s := range specs {
		got, err := DecodeSpec(s.Encode())
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("spec %d round trip:\n want %+v\n got  %+v", i, s, got)
		}
	}
	for _, data := range [][]byte{nil, {1, 2, 3, 4}, {0, 0, 0, 0, 0}} {
		if _, err := DecodeSpec(data); err == nil {
			t.Errorf("DecodeSpec(%v) should fail", data)
		}
	}
	// Every sufficiently long byte string decodes (totality).
	if _, err := DecodeSpec(bytes.Repeat([]byte{0xff}, 40)); err != nil {
		t.Errorf("total decoding violated: %v", err)
	}
}

// TestDecodedSpecsAgree: arbitrary decoded specs must pass the full
// differential gate (a quick inline version of FuzzDifferential).
func TestDecodedSpecsAgree(t *testing.T) {
	inputs := [][]byte{
		bytes.Repeat([]byte{7}, 40),
		{2, 1, 3, 9, 4, 4, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		append([]byte{4, 3, 7, 200}, bytes.Repeat([]byte{0xAB, 0x13, 0x77}, 30)...),
	}
	for i, data := range inputs {
		spec, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if FailsDifferential(spec) {
			for _, m := range CheckAll(spec.Run()) {
				t.Errorf("input %d (%s): %s", i, spec, Report(&m))
			}
		}
	}
}

// TestMinimizeShrinks plants a synthetic "bug" predicate and checks the
// minimizer drives the spec to the smallest input exhibiting it.
func TestMinimizeShrinks(t *testing.T) {
	fails := func(s *Spec) bool {
		for _, row := range s.Rows {
			if row[0] == 1 {
				return true
			}
		}
		return false
	}
	big := &Spec{
		Cards:   []int{4, 5, 3},
		MinSup:  3,
		Workers: 6,
		Seed:    9,
	}
	for i := 0; i < 30; i++ {
		big.Rows = append(big.Rows, []uint32{uint32(i % 4), uint32(i % 5), uint32(i % 3)})
		big.Meas = append(big.Meas, uint8(i%maxMeasure))
	}
	min := Minimize(big, fails)
	if !fails(min) {
		t.Fatal("minimized spec no longer fails")
	}
	if len(min.Rows) != 1 || len(min.Cards) != 1 || min.Workers != 1 || min.MinSup != 1 {
		t.Errorf("not minimal: %s", min)
	}
	// The encoded minimum must round trip (it becomes the corpus file).
	back, err := DecodeSpec(min.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !fails(back) {
		t.Error("re-decoded minimum no longer fails")
	}
}

// TestMinimizeOnPassingSpec: Minimize must return the input unchanged when
// it does not fail.
func TestMinimizeOnPassingSpec(t *testing.T) {
	s := &Spec{Cards: []int{3}, Rows: [][]uint32{{2}}, Meas: []uint8{1}, MinSup: 1, Workers: 2, Seed: 3}
	if got := Minimize(s, func(*Spec) bool { return false }); got != s {
		t.Error("Minimize modified a passing spec")
	}
}

// TestReport checks the counterexample rendering carries everything a
// human needs to reproduce the run.
func TestReport(t *testing.T) {
	run := testRun(3, 2, 2, 3, 1)
	m := &Mismatch{Algo: "ASL", Diff: "1+ differences: [cuboid 11: cell [1 2] missing from other]", Run: run}
	rep := Report(m)
	for _, want := range []string{"ASL", "COUNT>=2", "workers=3", "row  0", "cuboid 11", "measure="} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestCorpusFileFormat: the committed-corpus helper must emit the v1
// format go test understands.
func TestCorpusFileFormat(t *testing.T) {
	got := string(CorpusFile([]byte{0, 1, 0xff}))
	if !strings.HasPrefix(got, "go test fuzz v1\n[]byte(") {
		t.Errorf("bad corpus file: %q", got)
	}
}

// TestRunSetMergesAcrossWorkers sanity-checks RunSet against a direct
// NaiveCube call so the oracle's own plumbing is covered.
func TestRunSetMergesAcrossWorkers(t *testing.T) {
	run := testRun(200, 3, 2, 4, 71)
	want := core.NaiveCube(run.Rel, run.Dims, run.Cond)
	for _, a := range Algorithms() {
		set, err := RunSet(a, run)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if diff := want.Diff(set); diff != "" {
			t.Errorf("%s: %s", a.Name, diff)
		}
		if set.NumCells() == 0 {
			t.Errorf("%s produced an empty cube", a.Name)
		}
	}
}
