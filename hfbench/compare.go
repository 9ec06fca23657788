package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// loadResults reads result lines (one JSON result object per line; other
// lines are skipped) and returns each metric's values across them.
func loadResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n, bad := 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		n++
		if !res.Correct || res.Failed > 0 {
			bad++
			continue
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	if bad > 0 {
		return nil, fmt.Errorf("%s: %d of %d runs reported failed operations", path, bad, n)
	}
	return vals, nil
}

// regressPct is the comparator's fixed gate: an end-to-end metric worse
// by more than this percent fails the comparison. It sits below every
// manifest bound (at most 25%), so a synthetic -degrade 20 must fail.
const regressPct = 10

// comparison is one metric's verdict.
type comparison struct {
	name                   string
	base, cand             float64 // medians
	worsePct               float64 // how much worse the candidate is, percent (negative: better)
	boundPct               float64 // 0 when the metric has no bound
	baseSpread, candSpread float64 // quartile spread / median
	regressed              bool    // worse by more than regressPct
	overBound              bool    // worse by more than the manifest bound
}

// compareResults sets the candidate's medians against the baseline's.
// degradePct synthetically worsens every candidate value first. An
// end-to-end metric regresses when it is worse by more than regressPct,
// and is over its bound when worse by more than the manifest bound (the
// share by which a change is rejected). Per-layer metrics have no bound
// and are reported only.
func compareResults(base, cand map[string][]float64, degradePct float64) []comparison {
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		specs[m.Name] = m
	}
	var out []comparison
	for name, bv := range base {
		cv, ok := cand[name]
		spec, known := specs[name]
		if !ok || !known {
			continue
		}
		lower := spec.Better == "lower"
		cv = append([]float64(nil), cv...)
		for i := range cv {
			if lower {
				cv[i] *= 1 + degradePct/100
			} else {
				cv[i] *= 1 - degradePct/100
			}
		}
		c := comparison{name: name, base: median(bv), cand: median(cv),
			baseSpread: quartileSpread(bv), candSpread: quartileSpread(cv)}
		if c.base != 0 {
			c.worsePct = 100 * (c.cand - c.base) / c.base
			if !lower {
				c.worsePct = -c.worsePct
			}
		}
		if spec.Bound != nil {
			c.boundPct = 100 * *spec.Bound
			c.regressed = c.worsePct > regressPct
			c.overBound = c.worsePct > c.boundPct
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// runCompare prints the comparison of two result files and returns the
// exit code: 1 when any end-to-end metric regressed.
func runCompare(basePath, candPath string, degradePct float64) int {
	if candPath == "" {
		fmt.Fprintln(os.Stderr, "hfbench: -compare needs -in <candidate results>")
		return 2
	}
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfbench:", err)
		return 2
	}
	cand, err := loadResults(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfbench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-44s %14s %14s %8s %7s %8s %8s\n", "metric", "base", "cand", "worse%", "bound%", "spreadB", "spreadC")
	for _, c := range compareResults(base, cand, degradePct) {
		flag := ""
		if c.regressed {
			flag = "  REGRESSED"
			code = 1
		}
		if c.overBound {
			flag += " (over bound)"
		}
		fmt.Printf("%-44s %14.6g %14.6g %8.2f %7.1f %8.3f %8.3f%s\n",
			c.name, c.base, c.cand, c.worsePct, c.boundPct, c.baseSpread, c.candSpread, flag)
	}
	return code
}
