package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's manifest: workloads and metrics, with units, direction
// and (end-to-end only) the regression bound. BENCHMARK.json at the
// repository root is this manifest rendered by `hfbench -manifest`; a
// test keeps the two identical.

// workloadSpec names one workload.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const (
	wlBenzene = "scf-benzene"
	wlChain   = "scf-purified-chain"
)

var workloads = []workloadSpec{
	{wlBenzene, "RHF benzene/STO-3G through the shared-Fock builder (Algorithm 3), 1 rank x 2 threads: the paper's headline path, s+L shells, eigensolve density step"},
	{wlChain, "eigensolve-free distributed SCF on a 32-unit H2 chain (n=64, s shells only), 2 ranks: tiled Fock updates, SP2 purification and one-sided traffic"},
}

func bound(v float64) *float64 { return &v }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"time_to_solution_s", "s", "lower", bound(0.25)},
	{"mem_peak_mb", "MB", "lower", bound(0.2)},
}

// Shell classes of the kernel probe, on calibrate's C2/6-31G(d) shells.
var kernelClasses = []string{"ssss", "LLLL", "dddd", "sLsL", "LLdd"}

var kernelPaths = []string{"direct", "paircache"}

func perLayerSpecs() []metricSpec {
	m := func(name, unit, better string) metricSpec { return metricSpec{name, unit, better, nil} }
	out := []metricSpec{
		m("integrals.eri_quartets", "count", "lower"),
		m("integrals.eri_ns_per_quartet", "ns", "lower"),
		m("integrals.eri_share", "ratio", "lower"),
	}
	for _, p := range kernelPaths {
		for _, c := range kernelClasses {
			out = append(out,
				m("integrals.kernel_ns."+p+"."+c, "ns", "lower"),
				m("integrals.kernel_allocs."+p+"."+c, "count", "lower"),
				m("integrals.kernel_model_ratio."+p+"."+c, "ratio", "lower"))
		}
	}
	out = append(out,
		m("integrals.setup_schwarz_s", "s", "lower"),
		m("integrals.setup_paircache_s", "s", "lower"),
		m("integrals.paircache_bytes", "bytes", "lower"),

		m("fock.build_s", "s", "lower"),
		m("fock.non_eri_s", "s", "lower"),
		m("fock.fixed_build_s.shared", "s", "lower"),
		m("fock.fixed_build_s.private", "s", "lower"),
		m("fock.fixed_build_s.mpionly", "s", "lower"),
		m("fock.screen_ratio", "ratio", "lower"),
		m("fock.flushes", "count", "lower"),
		m("fock.dlb_grabs", "count", "lower"),

		m("ddi.gsumf_ns.666", "ns", "lower"),
		m("ddi.gsumf_ns.2080", "ns", "lower"),
		m("ddi.dlb_next_ns", "ns", "lower"),
		m("mpi.messages", "count", "lower"),
		m("mpi.floats", "count", "lower"),

		m("linalg.eig_ns.36", "ns", "lower"),
		m("linalg.eig_ns.64", "ns", "lower"),
		m("scf.iterations", "count", "lower"),
		m("scf.iter_s", "s", "lower"),
		m("scf.density_s", "s", "lower"),

		m("distmat.sweeps", "count", "lower"),
		m("distmat.get_bytes", "bytes", "lower"),
		m("distmat.put_bytes", "bytes", "lower"),
		m("distmat.acc_bytes", "bytes", "lower"),
		m("distmat.purify_ns", "ns", "lower"),
		m("distmat.matmul_ns", "ns", "lower"),
		m("distmat.peak_rank_bytes", "bytes", "lower"),

		m("jobs.hash_ns", "ns", "lower"),
		m("jobs.queue_submit_claim_ns", "ns", "lower"),
		m("jobs.wal_append_ns", "ns", "lower"),
		m("jobs.cache_hit_ratio", "ratio", "higher"),
		m("jobs.coalesced", "count", "higher"),

		m("service.latency_ms.p50", "ms", "lower"),
		m("service.latency_ms.p95", "ms", "lower"),
		m("service.submit_ms.p50", "ms", "lower"),
		m("service.submit_ms.p95", "ms", "lower"),
		m("service.queue_wait_ms.p50", "ms", "lower"),
		m("service.queue_wait_ms.p95", "ms", "lower"),
		m("service.run_ms.serial", "ms", "lower"),
		m("service.run_ms.parallel", "ms", "lower"),
		m("service.run_ms.resilient", "ms", "lower"),
		m("service.rejected_429", "count", "lower"),
		m("service.gen_late_ms.p95", "ms", "lower"),

		m("trace_overhead_pct", "%", "lower"),
		m("coverage_pct", "%", "higher"),
	)
	return out
}

var perLayer = perLayerSpecs()

// manifest is the BENCHMARK.json document.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is how long one run measures.
const runSeconds = 50

func renderManifest() ([]byte, error) {
	doc := manifest{
		Command:    []string{"bash", "hfbench/run.sh"},
		Paths:      []string{"hfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return append(out, '\n'), nil
}
