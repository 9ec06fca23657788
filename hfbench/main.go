// Command hfbench is the repository's benchmark: two named workloads
// (scf-benzene, scf-purified-chain), every result checked for
// correctness, end-to-end metrics from untraced runs and per-layer
// metrics from a traced run that times calls into each package's public
// functions from outside. See README.md for the workloads and metrics.
//
//	hfbench -workload scf-benzene -seed 1 -seconds 50 -trace 0
//	hfbench -manifest > BENCHMARK.json
//	hfbench -compare base.jsonl -in cand.jsonl [-degrade 20]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/molecule"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
	secs := flag.Int("seconds", runSeconds, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for WAL segments")
	printManifest := flag.Bool("manifest", false, "print the BENCHMARK.json manifest and exit")
	compare := flag.String("compare", "", "baseline result lines (one JSON result per line); compare -in against it")
	in := flag.String("in", "", "candidate result lines for -compare")
	degrade := flag.Float64("degrade", 0, "worsen every candidate metric by this percent before comparing")
	flag.Parse()

	switch {
	case *printManifest:
		out, err := renderManifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	case *compare != "":
		os.Exit(runCompare(*compare, *in, *degrade))
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	dur := time.Duration(*secs) * time.Second
	dir, err := serveWorkDir(*workDir)
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	r := newReport(*trace == 1)
	switch *workload {
	case wlBenzene, wlChain:
		err = runSCFWorkload(r, *workload, *seed, dur)
	default:
		err = fmt.Errorf("unknown workload %q (want %s)", *workload, workloadNames())
	}
	if err == nil && r.traced && r.failed == 0 {
		err = runProbes(r, dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	line, err := r.render()
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hfbench:", err)
	os.Exit(1)
}

// report accumulates one run's operations and metrics.
type report struct {
	traced    bool
	attempted int
	failed    int
	metrics   map[string]float64
	own       map[string]bool // metrics the workload itself measured
	cover     coverFunc       // coverage_pct of the traced solves, awaiting the probes' prices
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: map[string]float64{}, own: map[string]bool{}}
}

// op records one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "hfbench: failed operation:", err)
	}
}

// set records a metric the workload measured itself.
func (r *report) set(name string, v float64) {
	r.metrics[name] = v
	r.own[name] = true
}

// probe records a metric from a fixed-input probe unless the workload
// already measured it.
func (r *report) probe(name string, v float64) {
	if !r.own[name] {
		r.metrics[name] = v
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render emits the result line with exactly the manifest's metrics for
// this mode. On a run without failed operations a missing or non-finite
// metric is an error; a run with failures reports whatever it measured,
// so its failed count still reaches the output.
func (r *report) render() ([]byte, error) {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if len(missing) > 0 && r.failed == 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(res)
}

// runProbes adds the fixed-input layer probes to a traced run. Metrics
// the workload measured itself take precedence (see report.probe).
func runProbes(r *report, dir string) error {
	set := r.probe
	if err := kernelProbe(os.Stderr, set); err != nil {
		return err
	}
	benz, err := setupSystem(molecule.Benzene(), "sto-3g")
	if err != nil {
		return err
	}
	if err := fixedBuildProbe(benz, set); err != nil {
		return err
	}
	if err := commProbe(set); err != nil {
		return err
	}
	eig36NS := denseProbe(set)
	dp, err := distmatProbe(set)
	if err != nil {
		return err
	}
	if r.cover != nil {
		r.set("coverage_pct", r.cover(eig36NS, dp))
	}
	if err := jobsProbe(dir, set); err != nil {
		return err
	}
	if err := waterProbe(set); err != nil {
		return err
	}
	sr, err := runServe(serveProbeWindow, dir)
	if err != nil {
		return err
	}
	if countServed(r, sr) {
		serveLayerMetrics(sr, set)
	}
	return nil
}
