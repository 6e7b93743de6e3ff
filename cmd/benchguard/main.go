// Command benchguard turns `go test -bench -benchmem` text into a
// machine-readable benchmark snapshot (the BENCH_<date>.json series
// committed alongside EXPERIMENTS.md) and, given a baseline snapshot,
// fails when allocations regress grossly.
//
// Only allocs/op is gated by default: the zero-allocation sort/partition
// kernels make steady-state allocation counts deterministic, so any jump
// is a real regression, whereas ns/op on shared CI machines swings ±15%
// and would make the gate flaky. Pass -time-slack to opt into a wall-time
// gate on quiet hardware.
//
// Usage:
//
//	go test -run xxx -bench Fig -benchmem | \
//	    benchguard -out BENCH_$(date +%F).json -baseline bench/baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the JSON file format.
type Snapshot struct {
	Generated string   `json:"generated"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
}

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	HasMem      bool    `json:"has_mem"`
}

// benchLine matches the fixed prefix of `go test -bench` result lines
// (name, iterations, ns/op). The -<n> GOMAXPROCS suffix is split off so
// snapshots from machines with different core counts compare by
// benchmark name. Everything after ns/op is `value unit` metric pairs
// (B/op, allocs/op, and any custom metrics) parsed by parseMetricPairs.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// parseMetricPairs folds the `value unit` pairs trailing ns/op into res.
// Unknown units are ignored, so new custom metrics never break old
// guards.
func parseMetricPairs(rest string, res *Result) {
	fields := strings.Fields(rest)
	for i := 0; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "B/op":
			res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			res.HasMem = true
		case "allocs/op":
			res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			res.HasMem = true
		}
	}
}

// parseBench extracts benchmark results from `go test -bench` output,
// passing non-benchmark lines through to echo (nil = discard).
func parseBench(r io.Reader, echo io.Writer) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		res := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		parseMetricPairs(m[4], &res)
		out = append(out, res)
	}
	return out, sc.Err()
}

// regression describes one failed gate.
type regression struct {
	name string
	what string
}

// compare gates current against baseline. A benchmark present only in the
// current snapshot is returned in missing — it is new since the baseline
// was frozen, so it is reported as a warning rather than gated (benchmarks
// come and go across PRs; the gate only covers names both sides know). Of
// the repeated names `-count=N` produces, the first occurrence wins.
func compare(baseline, current []Result, allocSlack, allocGrace, timeSlack float64) (regs []regression, missing []string) {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := map[string]bool{}
	for _, cur := range current {
		if seen[cur.Name] {
			continue
		}
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			missing = append(missing, cur.Name)
			continue
		}
		if cur.HasMem && b.HasMem {
			limit := float64(b.AllocsPerOp)*allocSlack + allocGrace
			if float64(cur.AllocsPerOp) > limit {
				regs = append(regs, regression{cur.Name, fmt.Sprintf(
					"allocs/op %d exceeds baseline %d × %.2g + %.0f",
					cur.AllocsPerOp, b.AllocsPerOp, allocSlack, allocGrace)})
			}
		}
		if timeSlack > 0 && cur.NsPerOp > b.NsPerOp*timeSlack {
			regs = append(regs, regression{cur.Name, fmt.Sprintf(
				"ns/op %.0f exceeds baseline %.0f × %.2g", cur.NsPerOp, b.NsPerOp, timeSlack)})
		}
	}
	return regs, missing
}

func main() {
	var (
		in         = flag.String("in", "", "benchmark output file (default stdin)")
		out        = flag.String("out", "", "write the parsed snapshot JSON here")
		baseline   = flag.String("baseline", "", "baseline snapshot JSON to gate against")
		allocSlack = flag.Float64("alloc-slack", 1.5, "allowed allocs/op growth factor over baseline")
		allocGrace = flag.Float64("alloc-grace", 64, "absolute allocs/op grace added to the limit (absorbs one-time setup noise on near-zero baselines)")
		timeSlack  = flag.Float64("time-slack", 0, "allowed ns/op growth factor (0 = no wall-time gate; CI timing is too noisy)")
		strict     = flag.Bool("strict", false, "fail (instead of warn) on benchmarks absent from the baseline — forces every new benchmark to be frozen into the baseline in the same PR")
		quiet      = flag.Bool("quiet", false, "do not echo the benchmark text")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("benchguard: %v", err)
		}
		defer f.Close()
		src = f
	}
	echo := io.Writer(os.Stdout)
	if *quiet {
		echo = nil
	}
	results, err := parseBench(src, echo)
	if err != nil {
		fatalf("benchguard: %v", err)
	}
	if len(results) == 0 {
		fatalf("benchguard: no benchmark lines found in input")
	}

	if *out != "" {
		snap := Snapshot{
			Generated: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			Results:   results,
		}
		data, err := json.MarshalIndent(&snap, "", "  ")
		if err != nil {
			fatalf("benchguard: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("benchguard: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchguard: wrote %d results to %s\n", len(results), *out)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("benchguard: %v", err)
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			fatalf("benchguard: %s: %v", *baseline, err)
		}
		regs, missing := compare(snap.Results, results, *allocSlack, *allocGrace, *timeSlack)
		for _, name := range missing {
			if *strict {
				fmt.Fprintf(os.Stderr, "benchguard: MISSING %s not in baseline %s (add it to the baseline)\n", name, *baseline)
			} else {
				fmt.Fprintf(os.Stderr, "benchguard: WARNING %s not in baseline %s (new benchmark, not gated)\n", name, *baseline)
			}
		}
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "benchguard: REGRESSION %s: %s\n", r.name, r.what)
		}
		if len(regs) > 0 || (*strict && len(missing) > 0) {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmarks within limits of %s\n", len(results), *baseline)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
