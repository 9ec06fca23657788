package fock

import (
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// PrivateFockBuild is the paper's Algorithm 2: the hybrid MPI/OpenMP
// variant with a shared (read-only) density matrix and one private Fock
// accumulator per thread. The MPI dynamic load balancer hands out single
// i shell indices; within a rank, OpenMP work-shares the collapsed (j, k)
// loops with schedule(dynamic,1); the per-thread Fock copies are reduced
// over threads and then over ranks.
//
// Call from inside mpi.Run on every rank. The returned Fock is complete
// and identical on all ranks.
func PrivateFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, d *linalg.Matrix, cfg Config) (*linalg.Matrix, Stats) {
	return gResult(privateFock(dx, newPlan(eng, sch, cfg, gTarget(density{m: d})), cfg))
}

// PrivateFockBuildJK is Algorithm 2 for the J/K split (see JKResult):
// each thread keeps private J and K accumulators.
func PrivateFockBuildJK(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	dj, dka, dkb *linalg.Matrix, cfg Config) JKResult {
	return jkResult(privateFock(dx, newPlan(eng, sch, cfg, jkTargets(dj, dka, dkb)), cfg))
}

func privateFock(dx *ddi.Context, p *plan, cfg Config) ([]*linalg.Matrix, Stats) {
	ns := len(p.shells)
	nthreads := cfg.threads()
	sched := cfg.schedule()

	// Thread-private Fock replicas (the algorithm's defining memory cost:
	// (2 + Nthreads) N^2 per rank, eq. 3b).
	priv := make([][]*linalg.Matrix, nthreads) // [thread][target]
	workers := make([]*worker, nthreads)
	for t := range priv {
		priv[t] = p.accumulators()
		workers[t] = p.worker(lower(priv[t]))
	}
	tel := dx.Comm.Telemetry()
	rank := dx.Comm.Rank()

	dx.DLBReset()
	team := omp.NewTeam(nthreads)
	var iShared int64 // written by master, read by all between barriers
	team.Parallel(func(tc *omp.Context) {
		me := tc.ThreadID()
		w := workers[me]
		for {
			// Master fetches the next i index (Algorithm 2 lines 3-6). The
			// SDC hook fires here — one corruption opportunity per claimed
			// task, into the master thread's private replica — because the
			// whole team is fenced at the barrier below, so no thread races
			// the injected write.
			tc.Master(func() {
				iShared = dx.DLBNext()
				w.stats.DLBGrabs++
				dx.Comm.InjectSDC(mpi.SiteFock, priv[me][0].Data)
			})
			tc.Barrier()
			i := int(iShared)
			tc.Barrier()
			if i >= ns {
				break
			}
			// OpenMP over collapsed (j, k), j <= i, k <= i (line 7). Each
			// thread's span covers its share of the collapsed loops, so the
			// trace shows intra-team imbalance per i-task.
			var endTask func()
			if tel != nil {
				endTask = tel.Span("fock.task", "i-task", rank, me+1,
					map[string]any{"i": i})
			}
			tc.Collapse2(i+1, i+1, sched, func(j, k int) {
				w.sweep(i, j, PairIndex(k, 0), PairIndex(k, quartetLoopBounds(i, j, k)))
			})
			if endTask != nil {
				endTask()
			}
		}
		// reduction(+:Fock) over threads: chunked reduction of the private
		// replicas into thread 0's copy (paper Figure 1(B) access pattern).
		if nthreads > 1 {
			for o := range p.outs {
				others := make([][]float64, 0, nthreads-1)
				for t := 1; t < nthreads; t++ {
					others = append(others, priv[t][o].Data)
				}
				tc.ReduceChunked(priv[0][o].Data, others)
				tc.Barrier()
			}
		}
	})
	// 2e-Fock matrix reduction over MPI ranks (Algorithm 2 line 23).
	gsumf(dx, priv[0])
	return priv[0], sumStats(workers)
}
