package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestStrictFailsOnStaleBaselineRow: a baseline row that no benchmark
// ran — it was deleted, renamed, or fell out of the -bench pattern —
// gates nothing, so -strict must fail on it and name it; without
// -strict it is a warning.
func TestStrictFailsOnStaleBaselineRow(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchguard")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base, err := json.Marshal(Snapshot{Results: []Result{
		{Name: "BenchmarkFig3_6_IO", AllocsPerOp: 8046, HasMem: true},
		{Name: "BenchmarkGone", AllocsPerOp: 10, HasMem: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(dir, "baseline.json")
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(baseline, base, 0o644); err != nil {
		t.Fatal(err)
	}
	run1 := "BenchmarkFig3_6_IO-8 \t 3\t 704947515 ns/op\t94761354 B/op\t    8046 allocs/op\n"
	if err := os.WriteFile(in, []byte(run1), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, int) {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"-quiet", "-in", in, "-baseline", baseline}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return string(out), 0
		case errors.As(err, &exit):
			return string(out), exit.ExitCode()
		}
		t.Fatalf("benchguard: %v\n%s", err, out)
		return "", 0
	}

	out, code := run("-strict")
	if code != 1 || !strings.Contains(out, "STALE BenchmarkGone") {
		t.Fatalf("-strict: exit %d, want 1 naming BenchmarkGone:\n%s", code, out)
	}
	if strings.Contains(out, "STALE BenchmarkFig3_6_IO") {
		t.Fatalf("-strict flagged a row that ran:\n%s", out)
	}
	out, code = run()
	if code != 0 || !strings.Contains(out, "WARNING BenchmarkGone") {
		t.Fatalf("default: exit %d, want 0 with a warning for BenchmarkGone:\n%s", code, out)
	}
}
