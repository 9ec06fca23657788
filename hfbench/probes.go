package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/jobs"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/scf"
	"repro/internal/simulate"
)

// Small fixed-input calls into each layer. Every probe is a median of
// repeats; none depends on the workload seed.

// timeEach runs f in batches until budget is spent (at least minReps
// calls) and returns the median per-call time in ns over the batches.
func timeEach(budget time.Duration, minReps int, f func()) float64 {
	f() // warm
	var per []float64
	start := time.Now()
	reps := max(minReps, 1)
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	return median(per)
}

// kernelRow is one line of the per-class ERI model check.
type kernelRow struct {
	class      string
	path       string
	ns, allocs float64
	primQuarts int     // primitive quartets: the operation count
	modelNS    float64 // simulate.DefaultCostModel TQuartet prediction
}

// kernelProbe measures both ERI kernels on calibrate's C2/6-31G(d)
// shells (per atom: 0 = 6-primitive core S, 1 = L, 3 = D; atom 1 adds 4;
// pairs are canonical, i >= j, as the pair cache requires)
// and sets the model against each measurement.
func kernelProbe(w io.Writer, set func(string, float64)) error {
	m := &molecule.Molecule{Name: "C2"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, molecule.CCBond)
	b, err := basis.Build(m, "6-31g(d)")
	if err != nil {
		return err
	}
	eng := integrals.NewEngine(b)
	cache := integrals.NewPairCache(eng, 0)
	quartet := map[string][4]int{
		"ssss": {4, 0, 4, 0},
		"LLLL": {5, 1, 5, 1},
		"dddd": {7, 3, 7, 3},
		"sLsL": {5, 0, 5, 0},
		"LLdd": {5, 1, 7, 3},
	}
	cm := simulate.DefaultCostModel()
	var rows []kernelRow
	for _, path := range kernelPaths {
		var src integrals.QuartetSource = eng
		if path == "paircache" {
			src = cache
		}
		for _, cls := range kernelClasses {
			q := quartet[cls]
			sh := b.Shells
			var buf []float64
			call := func() { buf = src.ShellQuartet(q[0], q[1], q[2], q[3], buf) }
			ns := timeEach(60*time.Millisecond, 4, call)
			allocs := testing.AllocsPerRun(5, call)
			bra := simulate.PairClassOf(simulate.ClassOf(&sh[q[0]]), simulate.ClassOf(&sh[q[1]]))
			ket := simulate.PairClassOf(simulate.ClassOf(&sh[q[2]]), simulate.ClassOf(&sh[q[3]]))
			r := kernelRow{class: cls, path: path, ns: ns, allocs: allocs,
				primQuarts: len(sh[q[0]].Exps) * len(sh[q[1]].Exps) * len(sh[q[2]].Exps) * len(sh[q[3]].Exps),
				modelNS:    cm.QuartetTime(bra, ket) * 1e9}
			rows = append(rows, r)
			set("integrals.kernel_ns."+path+"."+cls, r.ns)
			set("integrals.kernel_allocs."+path+"."+cls, r.allocs)
			set("integrals.kernel_model_ratio."+path+"."+cls, r.ns/r.modelNS)
		}
	}
	fmt.Fprintln(w, "ERI kernel model check (C2/6-31G(d); model = simulate.DefaultCostModel TQuartet):")
	fmt.Fprintf(w, "  %-6s %-9s %14s %12s %11s %12s %10s\n",
		"class", "kernel", "ns/quartet", "allocs/qrt", "prim-qrts", "model ns", "meas/model")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s %-9s %14.0f %12.0f %11d %12.0f %10.2f\n",
			r.class, r.path, r.ns, r.allocs, r.primQuarts, r.modelNS, r.ns/r.modelNS)
	}
	return nil
}

// coreGuessDensity returns the density scf.RunRHF hands its first Fock
// build (the core-Hamiltonian guess), captured through the Builder.
func coreGuessDensity(sys *system) (*linalg.Matrix, error) {
	var d *linalg.Matrix
	capture := func(dm *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		if d == nil {
			d = dm.Clone()
		}
		return linalg.NewSquare(dm.Rows), fock.Stats{}
	}
	_, err := scf.RunRHF(sys.eng, capture, scf.Options{MaxIter: 1, DisableValidation: true, DisableWatchdog: true})
	if d == nil {
		return nil, fmt.Errorf("core guess not captured: %v", err)
	}
	return d, nil
}

// fixedBuildProbe times one Fock build of each paper algorithm on sys at
// a fixed density, 2 workers each, setup excluded.
func fixedBuildProbe(sys *system, set func(string, float64)) error {
	d, err := coreGuessDensity(sys)
	if err != nil {
		return err
	}
	type variant struct {
		name           string
		ranks, threads int
		build          func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, *linalg.Matrix, fock.Config) (*linalg.Matrix, fock.Stats)
	}
	for _, v := range []variant{
		{"shared", 1, 2, fock.SharedFockBuild},
		{"private", 1, 2, fock.PrivateFockBuild},
		{"mpionly", 2, 1, fock.MPIOnlyBuild},
	} {
		var wall time.Duration
		err := mpi.Run(v.ranks, func(c *mpi.Comm) {
			dx := ddi.New(c)
			c.Barrier()
			t0 := time.Now()
			v.build(dx, sys.eng, sys.sch, d, fock.Config{Threads: v.threads, Quartets: sys.cache})
			c.Barrier()
			if c.Rank() == 0 {
				wall = time.Since(t0)
			}
		})
		if err != nil {
			return err
		}
		set("fock.fixed_build_s."+v.name, seconds(wall))
	}
	return nil
}

// commProbe times GSumF at the packed sizes of benzene (36 functions)
// and the chain (64), and DLBNext, on 2 ranks.
func commProbe(set func(string, float64)) error {
	for _, n := range []int{666, 2080} {
		var ns float64
		err := mpi.Run(2, func(c *mpi.Comm) {
			dx := ddi.New(c)
			buf := make([]float64, n)
			const reps = 200
			var per []float64
			for b := 0; b < 7; b++ {
				c.Barrier()
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					dx.GSumF(buf)
				}
				per = append(per, float64(time.Since(t0).Nanoseconds())/reps)
			}
			if c.Rank() == 0 {
				ns = median(per)
			}
		})
		if err != nil {
			return err
		}
		set(fmt.Sprintf("ddi.gsumf_ns.%d", n), ns)
	}
	var dlb float64
	err := mpi.Run(2, func(c *mpi.Comm) {
		dx := ddi.New(c)
		const reps = 2000
		var per []float64
		for b := 0; b < 7; b++ {
			dx.DLBReset()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				dx.DLBNext()
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/reps)
		}
		if c.Rank() == 0 {
			dlb = median(per)
		}
	})
	if err != nil {
		return err
	}
	set("ddi.dlb_next_ns", dlb)
	return nil
}

// gappedFock is a symmetric matrix with nocc eigenvalues near -1 and the
// rest near +1: the clean-gap regime SP2 and the eigensolver both serve.
func gappedFock(n, nocc int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(1234))
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		if i < nocc {
			m.Set(i, i, -1)
		} else {
			m.Set(i, i, 1)
		}
		for j := 0; j < i; j++ {
			v := 0.05 * rng.NormFloat64() / float64(n)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// denseProbe times the replicated eigensolve at benzene's and the
// chain's basis sizes and returns the price at benzene's (36).
func denseProbe(set func(string, float64)) float64 {
	ns := map[int]float64{}
	for _, n := range []int{36, 64} {
		f := gappedFock(n, n/2)
		ns[n] = timeEach(40*time.Millisecond, 2, func() {
			linalg.EigenSym(f.Clone())
		})
		set(fmt.Sprintf("linalg.eig_ns.%d", n), ns[n])
	}
	return ns[36]
}

// distmatPrices is what the distmat probe measured, for modelling.
type distmatPrices struct {
	purifyNS, sweeps, matmulNS float64
}

// distmatProbe purifies and multiplies a 64x64 gapped Fock over 2 ranks
// (the chain's size and grid) and reports one purification's sweeps,
// one-sided traffic and per-rank footprint alongside the timings.
func distmatProbe(set func(string, float64)) (distmatPrices, error) {
	const n, nocc, reps = 64, 32, 5
	fp := gappedFock(n, nocc)
	var purNS, mmNS []float64
	var sweeps int
	var get, put, acc, peak int64
	errs := make([]error, 2)
	err := mpi.Run(2, func(c *mpi.Comm) {
		g := distmat.NewGrid(c.Rank(), c.Size())
		dx := ddi.New(c)
		mk := func() *distmat.BlockMat { return distmat.New(g, dx, n, 0) }
		fpd, dst, xsq, prod := mk(), mk(), mk(), mk()
		mats := []*distmat.BlockMat{fpd, dst, xsq, prod}
		traffic := func() (g, p, a int64) {
			for _, m := range mats {
				mg, mp, ma := m.Traffic()
				g, p, a = g+mg, p+mp, a+ma
			}
			return g, p, a
		}
		if err := fpd.ScatterDense(fp); err != nil {
			errs[c.Rank()] = err
			return
		}
		g0, p0, a0 := traffic()
		for r := 0; r < reps; r++ {
			c.Barrier()
			t0 := time.Now()
			st, err := distmat.Purify(dst, fpd, xsq, nocc, 1e-12, 200)
			c.Barrier()
			dt := time.Since(t0)
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			t1 := time.Now()
			distmat.MatMul(prod, fpd, dst)
			c.Barrier()
			if c.Rank() == 0 {
				purNS = append(purNS, float64(dt.Nanoseconds()))
				mmNS = append(mmNS, float64(time.Since(t1).Nanoseconds()))
				sweeps = st.Sweeps
			}
		}
		g1, p1, a1 := traffic()
		var bytes int64
		for _, m := range mats {
			bytes += m.LocalBytes()
		}
		tg, tp, ta := dx.GSumI(g1-g0), dx.GSumI(p1-p0), dx.GSumI(a1-a0)
		if c.Rank() == 0 {
			get, put, acc, peak = tg/reps, tp/reps, ta/reps, bytes
		}
	})
	if err = firstErr(append(errs, err)...); err != nil {
		return distmatPrices{}, err
	}
	p := distmatPrices{purifyNS: median(purNS), sweeps: float64(sweeps), matmulNS: median(mmNS)}
	set("distmat.purify_ns", p.purifyNS)
	set("distmat.matmul_ns", p.matmulNS)
	set("distmat.sweeps", p.sweeps)
	set("distmat.get_bytes", float64(get))
	set("distmat.put_bytes", float64(put))
	set("distmat.acc_bytes", float64(acc))
	set("distmat.peak_rank_bytes", float64(peak))
	return p, nil
}

// jobsProbe times the job layer's hot calls: canonical hashing, a queue
// submit+claim pair, and a WAL accept record with fsync.
func jobsProbe(dir string, set func(string, float64)) error {
	spec := jobs.Spec{Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeResilient, Ranks: 2, Threads: 2}.Normalized()
	set("jobs.hash_ns", timeEach(40*time.Millisecond, 50, func() {
		if _, err := spec.CanonicalHash(); err != nil {
			panic(err)
		}
	}))
	q := jobs.NewQueue(16)
	now := time.Now()
	k := 0
	set("jobs.queue_submit_claim_ns", timeEach(40*time.Millisecond, 200, func() {
		k++
		if err := q.Submit(jobs.NewJob(jobs.FmtJobID(uint64(k)), "h", spec, now)); err != nil {
			panic(err)
		}
		if q.TryClaim() == nil {
			panic("queue: claim returned nil")
		}
	}))
	walDir, err := os.MkdirTemp(dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, _, err := jobs.OpenWAL(jobs.WALOptions{Dir: walDir})
	if err != nil {
		return err
	}
	defer wal.Close()
	var werr error
	set("jobs.wal_append_ns", timeEach(100*time.Millisecond, 5, func() {
		k++
		if err := wal.AppendAccept(jobs.NewJob(jobs.FmtJobID(uint64(k)), "h", spec, now), now); err != nil {
			werr = err
		}
	}))
	return werr
}
