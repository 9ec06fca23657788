package fock

import (
	"time"

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// SharedFockBuild is the paper's Algorithm 3: shared density AND shared
// Fock matrix. The MPI dynamic load balancer distributes combined ij
// shell-pair indices (a much finer task space than Algorithm 2's i loop,
// which is what wins at scale); OpenMP work-shares the inner combined kl
// pair loop with schedule(dynamic,1). Per-thread column-block buffers FI
// and FJ absorb the i- and j-shell contributions; the kl element updates
// the shared Fock directly, race-free because each kl iteration is owned
// by exactly one thread. FI is flushed only when the i index changes
// (plus once at the end); FJ is flushed after every kl loop; flushes are
// chunked reductions partitioned over the column index, barrier-isolated
// from quartet work (paper Figure 1).
//
// Call from inside mpi.Run on every rank; the returned Fock is complete
// and identical on all ranks.
func SharedFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, d *linalg.Matrix, cfg Config) (*linalg.Matrix, Stats) {
	return gResult(sharedFock(dx, newPlan(eng, sch, cfg, gTarget(density{m: d})), cfg))
}

// SharedFockBuildJK is Algorithm 3 for the J/K split (see JKResult):
// every output matrix gets its own FI/FJ buffers, flushed on the same
// schedule.
func SharedFockBuildJK(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	dj, dka, dkb *linalg.Matrix, cfg Config) JKResult {
	return jkResult(sharedFock(dx, newPlan(eng, sch, cfg, jkTargets(dj, dka, dkb)), cfg))
}

// fijTask is where a thread's current ij task lands: the i and j shell
// blocks its FI and FJ buffers hold.
type fijTask struct{ oi, ni, oj, nj int }

func sharedFock(dx *ddi.Context, p *plan, cfg Config) ([]*linalg.Matrix, Stats) {
	n := p.n
	npairs := NumPairs(len(p.shells))
	nthreads := cfg.threads()
	sched := cfg.schedule()
	maxQ := p.sch.MaxQ()
	maxSz := p.bas.ShellSizeMax()

	accs := p.accumulators() // shared lower-triangle accumulators
	// FI/FJ: one [shell function x NBF] block per thread and output
	// (Algorithm 3 line 3). Separate slices per thread keep them on
	// distinct cache lines (the role of the paper's padding bytes).
	fi := make([][][]float64, len(accs)) // [target][thread]
	fj := make([][][]float64, len(accs))
	for o := range accs {
		fi[o] = make([][]float64, nthreads)
		fj[o] = make([][]float64, nthreads)
		for t := 0; t < nthreads; t++ {
			fi[o][t] = make([]float64, maxSz*n)
			fj[o][t] = make([]float64, maxSz*n)
		}
	}
	// Each thread routes its updates by role (Algorithm 3 lines 25-27):
	// updates touching the i shell go to its FI buffer, updates touching
	// the j shell go to FJ, and the kl element updates the shared
	// accumulator directly.
	tasks := make([]*fijTask, nthreads)
	workers := make([]*worker, nthreads)
	for t := range workers {
		cur := new(fijTask)
		add := make([]sink, len(accs))
		for o, acc := range accs {
			fiBuf, fjBuf := fi[o][t], fj[o][t]
			add[o] = func(role, x, y int, v float64) {
				switch role {
				case roleAB, roleAC, roleAD:
					fiBuf[bufSlot(x, y, cur.oi, cur.ni, n)] += v
				case roleBD, roleBC:
					fjBuf[bufSlot(x, y, cur.oj, cur.nj, n)] += v
				default: // roleCD: c >= d within the canonical enumeration.
					acc.Add(x, y, v)
				}
			}
		}
		tasks[t], workers[t] = cur, p.worker(add)
	}
	tel := dx.Comm.Telemetry()
	rank := dx.Comm.Rank()

	dx.DLBReset()
	team := omp.NewTeam(nthreads)
	var ijShared int64
	var taskT0 time.Time // set by the master at each draw; master-only access

	// flush adds the per-thread buffers for shell sh into the shared
	// accumulators and zeroes them. Contributions live at slot
	// [local*n + y]; the write target is the canonical lower-triangle
	// element of {shellOffset+local, y}. Work is partitioned over y, which
	// is race-free (see bufSlot). Callers wrap it in barriers.
	flush := func(tc *omp.Context, bufs [][][]float64, sh int) {
		s := &p.shells[sh]
		off, cnt := s.BFOffset, s.NumFuncs()
		lo, hi := tc.StaticRange(n)
		for o, acc := range accs {
			for local := 0; local < cnt; local++ {
				row := off + local
				for y := lo; y < hi; y++ {
					sum := 0.0
					for t := 0; t < nthreads; t++ {
						sum += bufs[o][t][local*n+y]
						bufs[o][t][local*n+y] = 0
					}
					if sum != 0 {
						addLower(acc, row, y, sum)
					}
				}
			}
		}
	}

	team.Parallel(func(tc *omp.Context) {
		me := tc.ThreadID()
		w, cur := workers[me], tasks[me]
		iold := -1
		for {
			// The SDC hook fires inside the master section — one corruption
			// opportunity per claimed task, into the shared accumulator —
			// because the team is fenced at the barrier below, so the
			// injected write races nothing.
			tc.Master(func() {
				ijShared = dx.DLBNext()
				w.stats.DLBGrabs++
				taskT0 = time.Now()
				dx.Comm.InjectSDC(mpi.SiteFock, accs[0].Data)
			})
			tc.Barrier()
			ij := int(ijShared)
			tc.Barrier()
			if ij >= npairs {
				break
			}
			i, j := PairDecode(ij)
			// I and J prescreening (Algorithm 3 line 13): the whole top
			// iteration is skipped when no kl can survive.
			if p.sch.PairQ(i, j)*maxQ < p.tau {
				if me == 0 {
					w.stats.PairsSkipped++
				}
				continue
			}
			// Flush FI if i changed since the last processed pair
			// (Algorithm 3 lines 15-18).
			if i != iold && iold >= 0 {
				tc.Barrier()
				flush(tc, fi, iold)
				w.stats.Flushes++
				tc.Barrier()
			}
			si, sj := &p.shells[i], &p.shells[j]
			*cur = fijTask{si.BFOffset, si.NumFuncs(), sj.BFOffset, sj.NumFuncs()}
			// Inner kl loop, kl = 0..ij (Algorithm 3 lines 19-30).
			// tc.For carries the `omp end do` implicit barrier. Per-thread
			// spans expose intra-team imbalance per ij-task in the trace.
			var endTask func()
			if tel != nil {
				endTask = tel.Span("fock.task", "ij-task", rank, me+1,
					map[string]any{"i": i, "j": j})
			}
			tc.For(ij+1, sched, func(kl int) { w.sweep(i, j, kl, kl) })
			if endTask != nil {
				endTask()
			}
			// Flush FJ after every kl loop (Algorithm 3 line 31).
			flush(tc, fj, j)
			w.stats.Flushes++
			// Chaos hook: a sustained Slowdown stalls the master here —
			// the team blocks on the next barrier behind it, so the whole
			// rank slows by the scheduled factor — and every rank's task
			// latency feeds the straggler detector's shared window.
			tc.Master(func() {
				elapsed := time.Since(taskT0)
				elapsed += dx.Comm.TaskStall(mpi.SiteFock, elapsed)
				dx.ObserveTaskLatency(elapsed)
			})
			tc.Barrier()
			iold = i
		}
		// Remainder FI flush (Algorithm 3 line 36). All threads exited the
		// loop together, so iold agrees across the team.
		if iold >= 0 {
			tc.Barrier()
			flush(tc, fi, iold)
			tc.Barrier()
		}
	})
	// 2e-Fock matrix reduction over MPI ranks (Algorithm 3 line 38).
	gsumf(dx, accs)
	return accs, sumStats(workers)
}

// bufSlot is the FI/FJ buffer slot [local*n + other] of an update at
// {x, y}, where x lies in the buffer's shell block [off, off+cnt). When y
// lies in the block too, the slot is normalized to (maxLocal, minGlobal)
// so that the flush's partition over columns stays race-free.
func bufSlot(x, y, off, cnt, n int) int {
	if y >= off && y-off < cnt && y > x {
		x, y = y, x
	}
	return (x-off)*n + y
}
