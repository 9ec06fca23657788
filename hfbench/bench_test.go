package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/molecule"
)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := renderManifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: go run . -manifest > ../BENCHMARK.json")
	}
}

func TestManifestContract(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or duplicate name %q", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound out of (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// The counting source must see exactly the quartets the builders report
// in fock.Stats, summed over ranks and threads — the count benchrun's
// fock_build_ns_per_quartet took from rank 0 alone.
func TestCountingSourceMatchesFockStats(t *testing.T) {
	sys, err := setupSystem(molecule.Water(), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{2, 1}, {1, 2}, {3, 2}} {
		tr := newSolveTrace(sys)
		o := solveShared(sys, shape[0], shape[1], tr)
		if err := finish(o, -74.9630517731); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if got := tr.src.calls.Load(); got != o.quartets || got == 0 {
			t.Errorf("%d ranks x %d threads: source counted %d quartets, fock.Stats sum %d",
				shape[0], shape[1], got, o.quartets)
		}
		if shape[0] > 1 && o.res.TotalFockStats.QuartetsComputed >= o.quartets {
			t.Errorf("rank 0 alone holds %d of %d quartets", o.res.TotalFockStats.QuartetsComputed, o.quartets)
		}
		if len(tr.builds.snapshot()) != o.res.Iterations || len(tr.iters.stamp) != o.res.Iterations {
			t.Errorf("%d builds and %d stamps for %d iterations",
				len(tr.builds.snapshot()), len(tr.iters.stamp), o.res.Iterations)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if median([]float64{5, 1, 4, 2, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, which render rejects")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of 3 = %v, want %v", got, want)
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0, t0}
	sent := []time.Time{t0.Add(-time.Millisecond), t0, t0.Add(2500 * time.Microsecond)}
	got := lateness(due, sent)
	if got[0] != 0 || got[1] != 0 || got[2] != 2.5 {
		t.Errorf("lateness = %v", got)
	}
}

func writeResults(t *testing.T, path string, vals map[string][]float64) {
	t.Helper()
	var buf bytes.Buffer
	n := 0
	for _, v := range vals {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for name, v := range vals {
			res.Metrics[name] = metricValue{v[i], "x"}
		}
		line, _ := json.Marshal(res)
		buf.WriteString("a log line\n")
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestComparatorFlagsDegradation(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	writeResults(t, base, map[string][]float64{
		"time_to_solution_s": {13.1, 13.3, 12.9, 13.0, 13.2},
		"mem_peak_mb":        {19.7, 19.6, 19.7, 19.8, 19.7},
		"setup_s":            {0.11, 0.1, 0.12, 0.11, 0.1},
		"fock.build_s":       {1.2, 1.3, 1.2, 1.2, 1.3},
	})
	if code := runCompare(base, base, 0); code != 0 {
		t.Errorf("self-comparison exit %d", code)
	}
	if code := runCompare(base, base, 20); code != 1 {
		t.Errorf("20%% degradation exit %d, want 1", code)
	}
	vals, err := loadResults(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range compareResults(vals, vals, 20) {
		if bounded := c.boundPct > 0; c.regressed != bounded {
			t.Errorf("%s: regressed=%v at 20%% (bound %v%%)", c.name, c.regressed, c.boundPct)
		}
		if math.Abs(c.worsePct-20) > 1e-9 {
			t.Errorf("%s: worse by %v%%, want 20", c.name, c.worsePct)
		}
	}
	for _, c := range compareResults(vals, vals, 30) {
		if c.overBound != (c.boundPct > 0) {
			t.Errorf("%s: overBound=%v at 30%% (bound %v%%)", c.name, c.overBound, c.boundPct)
		}
	}
}

func TestScheduleSpellingsShareHashes(t *testing.T) {
	base := time.Unix(0, 0)
	arr, table := schedule(base, 20*time.Second, offeredRate)
	nd := 0
	hashOf := map[int]string{}
	seen := map[string]bool{}
	for _, a := range arr {
		if a.distinct {
			nd++
			h, err := a.spec.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			if seen[h] {
				t.Fatalf("two distinct contents share hash %s", h)
			}
			seen[h] = true
			hashOf[a.content] = h
		}
	}
	if len(table) != nd || math.Abs(float64(nd)/float64(len(arr))-distinctShare) > 0.01 {
		t.Errorf("%d distinct of %d arrivals", nd, len(arr))
	}
	for _, a := range arr {
		if a.distinct {
			continue
		}
		if _, err := a.spec.Validate(); err != nil {
			t.Fatal(err)
		}
		h, err := a.spec.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if h != hashOf[a.content] {
			t.Errorf("re-spelled content %d hashes %s, its original %s:\n%s", a.content, h, hashOf[a.content], a.spec.XYZ)
		}
	}
	again, _ := schedule(base, 20*time.Second, offeredRate)
	for i := range arr {
		if again[i].spec != arr[i].spec || !again[i].due.Equal(arr[i].due) {
			t.Fatal("two schedules differ")
		}
	}
}

func TestChainMolecule(t *testing.T) {
	a, b := chainMolecule(3), chainMolecule(3)
	if a.NumAtoms() != 2*chainUnits || a.NumElectrons() != 2*chainUnits {
		t.Fatalf("%d atoms", a.NumAtoms())
	}
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatal("same seed, different chain")
		}
	}
	if chainMolecule(4).Atoms[1] == a.Atoms[1] {
		t.Error("seed does not jitter the bonds")
	}
}

func TestRenderNeedsEveryMetric(t *testing.T) {
	r := newReport(false)
	r.op(nil)
	for _, m := range endToEnd[1:] {
		r.set(m.Name, 1)
	}
	if _, err := r.render(); err == nil {
		t.Error("rendered without setup_s")
	}
	r.set(endToEnd[0].Name, 0.5)
	line, err := r.render()
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("%s", line)
	}
	r.op(os.ErrNotExist)
	line, _ = r.render()
	if json.Unmarshal(line, &res); res.Correct || res.Failed != 1 {
		t.Errorf("a failed operation left the run correct: %s", line)
	}

	// A run with failures still prints its counts, with whatever it
	// measured — here nothing.
	for _, traced := range []bool{false, true} {
		r := newReport(traced)
		r.op(nil)
		r.op(os.ErrNotExist)
		line, err := r.render()
		if err != nil {
			t.Fatalf("traced=%v: failed run not rendered: %v", traced, err)
		}
		res := result{}
		if err := json.Unmarshal(line, &res); err != nil || res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != 0 {
			t.Errorf("traced=%v: %s", traced, line)
		}
	}
}

func TestComparatorRefusesFailedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	ok, _ := json.Marshal(result{Correct: true, Attempted: 2, Metrics: map[string]metricValue{"setup_s": {0.1, "s"}}})
	bad, _ := json.Marshal(result{Attempted: 2, Failed: 1, Metrics: map[string]metricValue{}})
	if err := os.WriteFile(path, []byte(string(ok)+"\n"+string(bad)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadResults(path); err == nil || !strings.Contains(err.Error(), "1 of 2 runs") {
		t.Errorf("loadResults = %v, want 1 of 2 runs failed", err)
	}
}
