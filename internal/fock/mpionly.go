package fock

import (
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// MPIOnlyBuild is the paper's Algorithm 1, the stock GAMESS SCF
// parallelization: every rank holds private copies of the density and the
// Fock accumulator; the dynamic load balancer hands out combined (i, j)
// shell-pair indices; each rank runs the full (k, l) loops for its pairs;
// a global sum reduces the Fock matrix at the end.
//
// Call from inside mpi.Run on every rank. d is the (replicated) density;
// the returned matrix is the complete two-electron Fock, identical on all
// ranks.
func MPIOnlyBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, d *linalg.Matrix, cfg Config) (*linalg.Matrix, Stats) {
	return gResult(mpiOnly(dx, newPlan(eng, sch, cfg, gTarget(density{m: d}))))
}

// MPIOnlyBuildJK is Algorithm 1 for the J/K split (see JKResult).
func MPIOnlyBuildJK(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	dj, dka, dkb *linalg.Matrix, cfg Config) JKResult {
	return jkResult(mpiOnly(dx, newPlan(eng, sch, cfg, jkTargets(dj, dka, dkb))))
}

func mpiOnly(dx *ddi.Context, p *plan) ([]*linalg.Matrix, Stats) {
	accs := p.accumulators()
	w := p.worker(lower(accs))
	// The private accumulator always rides the closing gsumf, so a landed
	// NaN-poison or bit-flip reaches every rank's Fock. Transport
	// checksums cannot catch it (the payload is "validly" wrong at send
	// time); the SCF-side matrix validators must.
	w.dlbPairs(dx, &accs[0].Data)
	// 2e-Fock matrix reduction over MPI ranks (Algorithm 1 line 16).
	gsumf(dx, accs)
	return accs, w.stats
}

// dlbPairs is Algorithm 1's distribution: the MPI dynamic load balancer
// hands out combined ij indices (Algorithm 1 line 3) and this rank sweeps
// every kl <= ij of the pairs it draws. The SDC hook gets one corruption
// opportunity per scanned pair, in *sdc: every rank scans all pairs in
// the same order regardless of which rank draws each one, so scheduled
// injections are deterministic per rank.
func (w *worker) dlbPairs(dx *ddi.Context, sdc *[]float64) {
	tel := dx.Comm.Telemetry()
	rank := dx.Comm.Rank()
	dx.DLBReset()
	next := dx.DLBNext() // first pair index this rank owns
	w.stats.DLBGrabs++
	ij := int64(0)
	for i := range w.shells {
		for j := 0; j <= i; j, ij = j+1, ij+1 {
			dx.Comm.InjectSDC(mpi.SiteFock, *sdc)
			if ij != next {
				continue
			}
			next = dx.DLBNext()
			w.stats.DLBGrabs++
			var endTask func()
			if tel != nil {
				endTask = tel.Span("fock.task", "pair", rank, 0,
					map[string]any{"i": i, "j": j})
			}
			w.sweep(i, j, 0, int(ij))
			if endTask != nil {
				endTask()
			}
		}
	}
}

// gsumf closes a replicated build: each accumulator is summed over ranks
// and unfolded into its symmetric matrix.
func gsumf(dx *ddi.Context, accs []*linalg.Matrix) {
	for _, acc := range accs {
		dx.GSumF(acc.Data)
		Finalize(acc)
	}
}

// sumStats totals the per-thread counters of a team.
func sumStats(workers []*worker) Stats {
	var st Stats
	for _, w := range workers {
		st.Add(w.stats)
	}
	return st
}
