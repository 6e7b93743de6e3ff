// Command benchmark is the repo's benchmark: six named workloads over
// the unmodified code, a fixed set of end-to-end metrics that every
// workload reports, and — in a separate traced run — per-layer metrics
// taken from outside by timing the calls into each layer's public
// functions on a ladder of twin stacks. BENCHMARK.json at the repo root
// fixes the names, units and regression bounds; README.md says what each
// workload stresses and what it bypasses.
//
//	go run ./benchmark -workload serve_hot -seed 1
//	go run ./benchmark -workload serve_hot -seed 1 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	outDir   string // scratch directories and span files go here
	jsonPath string // append the run as one JSON line here ("" = don't)
}

// run carries one workload run's accumulating state.
type run struct {
	cfg config
	sz  sizes
	log io.Writer // progress and the human-readable table

	attempted, failed atomic.Int64

	mu       sync.Mutex
	problems []string // first few failures, for the report
	vals     map[string]float64
	notes    []string // sample counts and ungated side numbers
	spans    []span
	seq      []int // the op sequence, kept for the determinism test

	started time.Time
}

// step logs a phase boundary with the time since the run began.
func (r *run) step(name string) {
	fmt.Fprintf(r.log, "  [%6.2fs] %s\n", time.Since(r.started).Seconds(), name)
}

// fail records one failed op.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metricValue is one metric on the wire.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -json appends it: the result plus what produced
// it, which is what -compare groups by.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      map[string]string `json:"env"`
	result
}

// environment records what the numbers depend on besides the code.
func environment() map[string]string {
	env := map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gogc":       os.Getenv("GOGC"),
		"go":         runtime.Version(),
		"clients":    fmt.Sprint(clients()),
		"commit":     "unknown",
	}
	if env["gogc"] == "" {
		env["gogc"] = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// execute runs one workload and assembles its result: every end-to-end
// metric untraced, every per-layer metric traced.
func execute(cfg config, log io.Writer) (*run, *result, error) {
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, sz: fullSizes, log: log, vals: map[string]float64{}, started: time.Now()}
	if cfg.tiny {
		r.sz = tinySizes
	}
	if err := wl.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := r.writeSpans(); err != nil {
			return nil, nil, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s measured %s = %v", cfg.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.vals {
		if _, ok := res.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("%s set %s, which is not a declared metric of this mode", cfg.workload, name)
		}
	}
	return r, res, nil
}

// report prints every metric by name with its unit, the sample counts
// and side numbers, and any failures.
func report(w io.Writer, cfg config, r *run, res *result) {
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	env := environment()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%s", k, env[k])
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
}

func main() {
	var cfg config
	var trace int
	var scale string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "op-sequence seed; the data is fixed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed part; scales the frozen op counts")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	flag.StringVar(&scale, "scale", "full", "full (the paper's 176,631 tuples) or tiny (smoke test)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for scratch data and span files")
	flag.StringVar(&cfg.jsonPath, "json", "", "append this run as one JSON line to the file")
	flag.BoolVar(&compare, "compare", false, "compare two -json files: benchmark -compare a.jsonl b.jsonl")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg.trace = trace != 0
	cfg.tiny = scale == "tiny"
	if scale != "full" && scale != "tiny" {
		fmt.Fprintf(os.Stderr, "benchmark: -scale %q: want full or tiny\n", scale)
		os.Exit(2)
	}
	r, res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, r, res)
	if cfg.jsonPath != "" {
		if err := appendRecord(cfg, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// appendRecord appends the run to cfg.jsonPath as one JSON line.
func appendRecord(cfg config, res *result) error {
	line, err := json.Marshal(record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: environment(), result: *res,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(cfg.jsonPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
