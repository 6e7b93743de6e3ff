// Command cubebench regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md) and prints the
// series as aligned text — the data recorded in EXPERIMENTS.md.
//
// The experiment registry (internal/exp.Experiments) is shared with
// bench_test.go, so the workload an experiment runs here is byte-identical
// to the one CI benchmarks.
//
// Usage:
//
//	cubebench                  # all experiments at a reduced size
//	cubebench -full            # the paper's full workload sizes (slow)
//	cubebench -exp fig4.2      # one experiment
//	cubebench -tuples 50000    # custom size
//	cubebench -cores 4         # intra-worker pools (faster wall clock, same results)
//	cubebench -json out.json   # machine-readable series + wall times
//	cubebench -cpuprofile p.out -exp fig4.2   # profile one experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"icebergcube/internal/exp"
)

// report is the -json output: one entry per experiment run, with the wall
// time alongside the reproduced table so benchmark trajectories can be
// tracked across commits (see cmd/benchguard).
type report struct {
	Generated string      `json:"generated"`
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	Runs      []runResult `json:"runs"`
}

type runResult struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	Tuples      int        `json:"tuples"` // 0 = the paper's full size
	WallSeconds float64    `json:"wall_seconds"`
	Table       *exp.Table `json:"table"`
}

func main() {
	var (
		which      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		tuples     = flag.Int("tuples", 20000, "CUBE data-set size before per-experiment scaling")
		full       = flag.Bool("full", false, "use the paper's full sizes (176,631 CUBE / 1,000,000 POL); slow")
		seed       = flag.Int64("seed", 2001, "workload seed")
		cores      = flag.Int("cores", 1, "intra-worker execution-pool width (wall clock only; results are identical)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonPath   = flag.String("json", "", "write machine-readable results to this file ('-' = stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the runs to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cubebench: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cubebench: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	base := exp.Config{Tuples: *tuples, Seed: *seed, Cores: *cores}
	if *full {
		base.Tuples = 0 // defaults to the paper's sizes per experiment
	}
	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	ran := 0
	for _, e := range exp.Experiments() {
		if *which != "all" && !strings.EqualFold(*which, e.ID) {
			continue
		}
		cfg := e.Scaled(base)
		start := time.Now()
		tbl, err := e.Run(cfg)
		wall := time.Since(start)
		if err != nil {
			fatalf("cubebench: %s: %v", e.ID, err)
		}
		if *jsonPath != "-" {
			fmt.Println(tbl.Format())
		}
		rep.Runs = append(rep.Runs, runResult{
			ID: e.ID, Title: e.Title, Tuples: cfg.Tuples,
			WallSeconds: wall.Seconds(), Table: tbl,
		})
		ran++
	}
	if ran == 0 {
		fatalf("cubebench: unknown experiment %q (try -list)", *which)
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fatalf("cubebench: %v", err)
		}
		out = append(out, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fatalf("cubebench: %v", err)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("cubebench: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatalf("cubebench: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
