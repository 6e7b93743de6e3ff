package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords groups a -json file's untraced runs by workload and
// reduces each metric to the median over that workload's runs.
func readRecords(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if samples[rec.Workload] == nil {
			samples[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			samples[rec.Workload][name] = append(samples[rec.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for wl, byMetric := range samples {
		out[wl] = map[string]float64{}
		for name, vs := range byMetric {
			out[wl][name] = median(vs)
		}
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b is than a relative to a, against the metric's bound in the
// spec. It reports false when any metric is outside its bound or a
// workload or metric of a is missing from b.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	spec, err := readBenchmarkSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			av, inA := a[wl][m.Name]
			bv, inB := b[wl][m.Name]
			if !inA {
				continue
			}
			if !inB {
				fmt.Fprintf(w, "%-14s %-14s %14.6g %14s %9s %7.2f  MISSING\n", wl, m.Name, av, "-", "-", m.Bound)
				ok = false
				continue
			}
			worse := (bv - av) / av
			if m.Better == "higher" {
				worse = (av - bv) / av
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", wl, m.Name, av, bv, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
