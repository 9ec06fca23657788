package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/molecule"
	"repro/internal/stats"
)

const (
	// The two SCF workloads both run on 2 workers.
	benzeneRanks, benzeneThreads = 1, 2
	chainRanks                   = 2
	// serveProbeWindow is the schedule the service probe plays in a
	// traced run.
	serveProbeWindow = 6 * time.Second
)

// runSCFWorkload runs scf-benzene or scf-purified-chain: setup (repeated),
// then solves for dur, each checked against its reference. An untraced
// run reports end-to-end metrics; a traced run alternates untraced and
// traced solves and reports per-layer metrics.
func runSCFWorkload(r *report, workload string, seed int64, dur time.Duration) error {
	mol := molecule.Benzene()
	if workload == wlChain {
		mol = chainMolecule(seed)
	}
	sys, err := setupRepeated(mol, "sto-3g")
	if err != nil {
		return err
	}
	solve := func(tr *solveTrace) *solveOutcome {
		if workload == wlChain {
			return solvePurified(sys, chainRanks, tr)
		}
		return solveShared(sys, benzeneRanks, benzeneThreads, tr)
	}
	ref := benzeneRef
	if workload == wlChain {
		ref = math.NaN() // the eigensolve reference is computed after the window
	}

	var plain, traced []*solveOutcome
	var traces []*solveTrace
	start := time.Now()
	for i := 0; ; i++ {
		var tr *solveTrace
		if r.traced && i%2 == 1 {
			tr = newSolveTrace(sys)
		}
		o := solve(tr)
		ferr := finish(o, ref)
		if ferr != nil {
			r.op(ferr)
			break // a failed solve ends the window: its metrics mean nothing
		}
		if tr != nil {
			traced, traces = append(traced, o), append(traces, tr)
		} else {
			plain = append(plain, o)
		}
		// Start another solve only if it is predicted to end inside the
		// window; a traced run needs one untraced and one traced solve.
		need := !r.traced || len(traced) > 0
		if need && seconds(time.Since(start))+o.wall() > dur.Seconds() {
			break
		}
	}
	memMB := peakRSSMB()

	all := append(append([]*solveOutcome(nil), plain...), traced...)
	if workload == wlChain && len(all) > 0 {
		// Reference: the replicated eigensolve SCF on the same geometry.
		refRun := solveShared(sys, benzeneRanks, benzeneThreads, nil)
		if err := finish(refRun, math.NaN()); err != nil {
			r.op(fmt.Errorf("chain reference: %w", err))
			all = nil // nothing to check the solves against
		} else {
			ref = refRun.res.Energy
		}
	}
	for _, o := range all {
		err := checkEnergy(o, ref)
		if err == nil && workload == wlBenzene && o.res.Iterations != 10 {
			err = fmt.Errorf("benzene converged in %d iterations, want 10", o.res.Iterations)
		}
		r.op(err)
	}
	if !r.traced {
		r.set("setup_s", sys.totalS)
		r.set("mem_peak_mb", memMB)
		if r.failed == 0 {
			var walls []float64
			for _, o := range plain {
				walls = append(walls, o.wall())
			}
			r.set("time_to_solution_s", median(walls))
		}
		return nil
	}
	if r.failed > 0 {
		return nil
	}

	r.set("integrals.setup_schwarz_s", sys.schwarzS)
	r.set("integrals.setup_paircache_s", sys.cacheS)
	r.set("integrals.paircache_bytes", float64(sys.cache.Bytes()))
	var walls, twalls []float64
	for _, o := range plain {
		walls = append(walls, o.wall())
	}
	for _, o := range traced {
		twalls = append(twalls, o.wall())
	}
	r.set("trace_overhead_pct", 100*(median(twalls)/median(walls)-1))
	if workload == wlBenzene {
		r.cover, err = scfLayerMetrics(traced, traces, benzeneRanks*benzeneThreads, r.set)
		return err
	}
	chainLayerMetrics(r, traced, traces)
	return nil
}

// coverFunc returns a workload's coverage_pct, given the probe prices of
// the steps its traced solves do not time themselves.
type coverFunc func(eig36NS float64, dp distmatPrices) float64

// scfLayerMetrics derives the integrals/fock/scf layer metrics of
// replicated-density solves from their traces: quartets and kernel time
// from the counting source, build spans from the builder decorator and
// iteration spans from the OnIteration stamps. Values are medians over
// solves. The returned coverage adds up parts measured independently of
// the solve wall: every build's wall plus one 36-function eigensolve per
// iteration, so time spent outside the builds and the eigensolve (the
// core guess, density formation, DIIS) shows as lost coverage.
func scfLayerMetrics(solves []*solveOutcome, traces []*solveTrace, nworkers int, set func(string, float64)) (coverFunc, error) {
	var quartets, nsPer, share, build, nonERI, iterS, densS, buildSum, screen, flushes, grabs, iters []float64
	for k, o := range solves {
		tr := traces[k]
		calls := tr.src.calls.Load()
		if calls != o.quartets {
			return nil, fmt.Errorf("quartet source counted %d quartets, fock.Stats summed over ranks %d", calls, o.quartets)
		}
		kt := float64(tr.src.kernelT.Load())
		quartets = append(quartets, float64(calls))
		nsPer = append(nsPer, kt/float64(calls))
		share = append(share, kt/1e9/(float64(nworkers)*o.wall()))

		builds := tr.builds.snapshot()
		stamps := tr.iters.stamp
		if len(stamps) != len(builds) || len(builds) == 0 {
			return nil, fmt.Errorf("saw %d builds for %d iterations", len(builds), len(stamps))
		}
		var bw, iw, dw []float64
		prev := o.start
		sum := 0.0
		for i, b := range builds {
			w := seconds(b.end.Sub(b.start))
			bw = append(bw, w)
			nonERI = append(nonERI, w-float64(b.eriNS)/1e9/float64(nworkers))
			it := seconds(stamps[i].Sub(prev))
			iw = append(iw, it)
			dw = append(dw, it-w)
			sum += w
			prev = stamps[i]
		}
		build = append(build, median(bw))
		iterS = append(iterS, median(iw))
		densS = append(densS, median(dw))
		buildSum = append(buildSum, sum)
		st := o.res.TotalFockStats
		screen = append(screen, float64(st.QuartetsComputed)/float64(st.QuartetsComputed+st.QuartetsScreened))
		flushes = append(flushes, float64(st.Flushes))
		grabs = append(grabs, float64(st.DLBGrabs))
		iters = append(iters, float64(o.res.Iterations))
	}
	set("integrals.eri_quartets", median(quartets))
	set("integrals.eri_ns_per_quartet", median(nsPer))
	set("integrals.eri_share", median(share))
	set("fock.build_s", median(build))
	set("fock.non_eri_s", median(nonERI))
	set("fock.screen_ratio", median(screen))
	set("fock.flushes", median(flushes))
	set("fock.dlb_grabs", median(grabs))
	set("scf.iterations", median(iters))
	set("scf.iter_s", median(iterS))
	set("scf.density_s", median(densS))
	cover := func(eig36NS float64, _ distmatPrices) float64 {
		var cov []float64
		for k, o := range solves {
			parts := buildSum[k] + iters[k]*eig36NS/1e9
			cov = append(cov, 100*parts/o.wall())
		}
		return median(cov)
	}
	return cover, nil
}

// chainLayerMetrics reports what the purified driver exposes from
// outside: quartets and kernel time from the counting source, sweeps,
// traffic and footprint from PurifyInfo. Its coverage is modelled: ERI
// time per worker plus sweeps and multiplies priced by the distmat probe
// (filled in by runProbes through report.cover).
func chainLayerMetrics(r *report, solves []*solveOutcome, traces []*solveTrace) {
	var quartets, nsPer, share, iterS, sweeps, get, put, acc, peak, iters []float64
	for k, o := range solves {
		tr := traces[k]
		calls := float64(tr.src.calls.Load())
		kt := float64(tr.src.kernelT.Load())
		quartets = append(quartets, calls)
		nsPer = append(nsPer, kt/calls)
		share = append(share, kt/1e9/(float64(chainRanks)*o.wall()))
		iters = append(iters, float64(o.res.Iterations))
		iterS = append(iterS, o.wall()/float64(o.res.Iterations))
		sweeps = append(sweeps, float64(o.info.TotalSweeps))
		get = append(get, float64(o.info.GetBytes))
		put = append(put, float64(o.info.PutBytes))
		acc = append(acc, float64(o.info.AccBytes))
		peak = append(peak, float64(o.info.PeakRankBytes))
	}
	r.set("integrals.eri_quartets", median(quartets))
	r.set("integrals.eri_ns_per_quartet", median(nsPer))
	r.set("integrals.eri_share", median(share))
	r.set("scf.iterations", median(iters))
	r.set("scf.iter_s", median(iterS))
	r.set("distmat.sweeps", median(sweeps))
	r.set("distmat.get_bytes", median(get))
	r.set("distmat.put_bytes", median(put))
	r.set("distmat.acc_bytes", median(acc))
	r.set("distmat.peak_rank_bytes", median(peak))
	r.cover = func(_ float64, dp distmatPrices) float64 {
		var cov []float64
		for k, o := range solves {
			eri := float64(traces[k].src.kernelT.Load()) / float64(chainRanks)
			dens := float64(o.info.TotalSweeps)*dp.purifyNS/dp.sweeps + float64(matmulsPerIter*o.res.Iterations)*dp.matmulNS
			cov = append(cov, 100*(eri+dens)/1e9/o.wall())
		}
		return median(cov)
	}
}

// matmulsPerIter is the distributed multiplies of one purified SCF
// iteration outside purification: F' = X F X (2), the DIIS commutator
// (1) and D = X D' X (2).
const matmulsPerIter = 5

// waterProbe is a traced water/STO-3G shared-Fock solve on 2 ranks x 1
// thread. It gives the mpi layer's message counts on every workload, and
// the integrals/fock/scf layer metrics on workloads whose own solves do
// not expose them.
func waterProbe(set func(string, float64)) error {
	sys, err := setupSystem(molecule.Water(), "sto-3g")
	if err != nil {
		return err
	}
	tr := newSolveTrace(sys)
	o := solveShared(sys, 2, 1, tr)
	if err := finish(o, math.NaN()); err != nil {
		return fmt.Errorf("water probe: %w", err)
	}
	set("mpi.messages", float64(o.msgs))
	set("mpi.floats", float64(o.flts))
	_, err = scfLayerMetrics([]*solveOutcome{o}, []*solveTrace{tr}, 2, set)
	return err
}

// countServed adds a played schedule's arrivals to the run's operations
// and reports whether all of them succeeded.
func countServed(r *report, sr *serveResult) bool {
	r.attempted += sr.arrivals
	r.failed += sr.failed
	if sr.failed > 0 {
		fmt.Fprintf(os.Stderr, "hfbench: %d of %d served jobs failed; first: %v\n", sr.failed, sr.arrivals, sr.firstErr)
	}
	return sr.failed == 0
}

// serveLayerMetrics reports the jobs and service layers of a played
// schedule.
func serveLayerMetrics(sr *serveResult, set func(string, float64)) {
	set("service.latency_ms.p50", stats.Quantile(sr.latencyMS, 0.5))
	set("service.latency_ms.p95", stats.Quantile(sr.latencyMS, 0.95))
	set("service.submit_ms.p50", stats.Quantile(sr.submitMS, 0.5))
	set("service.submit_ms.p95", stats.Quantile(sr.submitMS, 0.95))
	set("service.queue_wait_ms.p50", stats.Quantile(sr.queueWaitMS, 0.5))
	set("service.queue_wait_ms.p95", stats.Quantile(sr.queueWaitMS, 0.95))
	for _, m := range serveModes {
		set("service.run_ms."+m, median(sr.runMS[m]))
	}
	set("service.rejected_429", float64(sr.rejected429))
	set("service.gen_late_ms.p95", stats.Quantile(sr.lateMS, 0.95))
	ratio := 0.0
	if sr.resubmits > 0 {
		ratio = float64(sr.cached) / float64(sr.resubmits)
	}
	set("jobs.cache_hit_ratio", ratio)
	set("jobs.coalesced", float64(sr.coalesced))
}
