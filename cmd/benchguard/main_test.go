package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: icebergcube
cpu: AMD EPYC 7B13
BenchmarkFig3_6_IO-8         	       3	 704947515 ns/op	94761354 B/op	    8046 allocs/op
BenchmarkFig4_2_Scalability 	       1	10365822832 ns/op	2071946616 B/op	16305324 allocs/op
BenchmarkFig4_7_Recipe-8     	 5120060	       235.6 ns/op	     144 B/op	       6 allocs/op
BenchmarkSortViewWarm        	  123456	      9000 ns/op
PASS
ok  	icebergcube	42.0s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4", len(got))
	}
	first := got[0]
	if first.Name != "BenchmarkFig3_6_IO" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", first.Name)
	}
	if first.Iterations != 3 || first.NsPerOp != 704947515 ||
		first.BytesPerOp != 94761354 || first.AllocsPerOp != 8046 || !first.HasMem {
		t.Fatalf("bad first result: %+v", first)
	}
	if got[2].NsPerOp != 235.6 {
		t.Fatalf("fractional ns/op parsed as %v", got[2].NsPerOp)
	}
	if got[3].HasMem {
		t.Fatal("line without -benchmem columns flagged HasMem")
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 1000, HasMem: true},
		{Name: "BenchmarkZero", NsPerOp: 50, AllocsPerOp: 0, HasMem: true},
	}
	cur := []Result{
		{Name: "BenchmarkA", NsPerOp: 500, AllocsPerOp: 1400, HasMem: true}, // within 1.5×
		{Name: "BenchmarkZero", NsPerOp: 50, AllocsPerOp: 60, HasMem: true}, // within grace
		{Name: "BenchmarkNew", NsPerOp: 1, AllocsPerOp: 1 << 30, HasMem: true},
	}
	if regs, _ := compare(base, cur, 1.5, 64, 0); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	// Blow the alloc limit.
	cur[0].AllocsPerOp = 2000
	regs, _ := compare(base, cur, 1.5, 64, 0)
	if len(regs) != 1 || regs[0].name != "BenchmarkA" {
		t.Fatalf("want one BenchmarkA regression, got %v", regs)
	}
	// Grace only stretches so far on a zero baseline.
	cur[0].AllocsPerOp = 1400
	cur[1].AllocsPerOp = 100
	if regs, _ := compare(base, cur, 1.5, 64, 0); len(regs) != 1 {
		t.Fatalf("zero-baseline regression missed: %v", regs)
	}
	// Opt-in wall-time gate.
	if regs, _ := compare(base, cur[:1], 1.5, 64, 2.0); len(regs) != 1 {
		t.Fatalf("time gate missed 5× slowdown: %v", regs)
	}
}

func TestCompareWarnsOnNewBenchmarks(t *testing.T) {
	base := []Result{{Name: "BenchmarkA", AllocsPerOp: 100, HasMem: true}}
	cur := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 100, HasMem: true},
		// Grossly over any limit — but absent from baseline, so it must be
		// reported as new, never as a regression.
		{Name: "BenchmarkFigCores_PT", AllocsPerOp: 1 << 30, HasMem: true},
		{Name: "BenchmarkFigCores_PT", AllocsPerOp: 1, HasMem: true}, // repeat: first wins
		{Name: "BenchmarkFigCores_BPP", NsPerOp: 1e12},
	}
	regs, missing := compare(base, cur, 1.5, 64, 2.0)
	if len(regs) != 0 {
		t.Fatalf("new benchmarks must not gate, got %v", regs)
	}
	want := []string{"BenchmarkFigCores_PT", "BenchmarkFigCores_BPP"}
	if len(missing) != len(want) || missing[0] != want[0] || missing[1] != want[1] {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
}

func TestCompareKeepsLastOfRepeatedRuns(t *testing.T) {
	base := []Result{{Name: "BenchmarkA", AllocsPerOp: 100, HasMem: true}}
	cur := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 100, HasMem: true},
		{Name: "BenchmarkA", AllocsPerOp: 10000, HasMem: true},
	}
	// -count=N emits the name N times; the gate must not double-report,
	// and documented behaviour is first-occurrence wins per name.
	if regs, _ := compare(base, cur, 1.5, 64, 0); len(regs) != 0 {
		t.Fatalf("first run was clean, got %v", regs)
	}
}
