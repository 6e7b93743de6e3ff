package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the nearest-rank percentile of an ascending sample:
// the smallest value with at least p of the sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median is the middle of vs (mean of the two middle values when even).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pass is what one timed pass reports.
type pass struct {
	p50ms, p90ms, p99ms float64
	perSec              float64
	ops                 int
}

// summarize reduces one pass's per-op latencies and wall time.
func summarize(lat []time.Duration, wall time.Duration) pass {
	v := make([]float64, len(lat))
	for i, d := range lat {
		v[i] = ms(d)
	}
	sort.Float64s(v)
	return pass{
		p50ms:  percentile(v, 0.50),
		p90ms:  percentile(v, 0.90),
		p99ms:  percentile(v, 0.99),
		perSec: float64(len(lat)) / wall.Seconds(),
		ops:    len(lat),
	}
}

// medianPass is the field-wise median of the timed passes: every
// reported timing is the median of the per-pass values.
func medianPass(ps []pass) pass {
	pick := func(f func(pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	return pass{
		p50ms:  pick(func(p pass) float64 { return p.p50ms }),
		p90ms:  pick(func(p pass) float64 { return p.p90ms }),
		p99ms:  pick(func(p pass) float64 { return p.p99ms }),
		perSec: pick(func(p pass) float64 { return p.perSec }),
		ops:    ps[0].ops,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
