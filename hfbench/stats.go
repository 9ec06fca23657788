package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// median is the middle value of xs (mean of the two middle values for an
// even count); NaN for an empty slice, which render rejects.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartileSpread is (Q3 - Q1) / median with the quartiles computed
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method). It is the steadiness figure the benchmark
// is accepted on.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// lateness returns how late each send ran against its due time, in
// milliseconds; an early send counts as 0.
func lateness(due, sent []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i].Sub(due[i]); d > 0 {
			out[i] = float64(d) / float64(time.Millisecond)
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB from
// /proc/self/status; 0 where that file is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
