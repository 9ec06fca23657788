package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/scf"
)

const (
	// benzeneRef is the converged RHF/STO-3G energy of molecule.Benzene.
	benzeneRef = -227.8910064891
	// energyTol is the agreement every checked energy must reach.
	energyTol = 1e-8
	// setupReps is how many times a run repeats its setup; setup_s is
	// the median.
	setupReps = 21
	// chainUnits is the number of H2 units in the purified chain.
	chainUnits = 32
)

// system is the per-molecule state an SCF needs before iteration 1.
type system struct {
	eng      *integrals.Engine
	sch      *integrals.Schwarz
	cache    *integrals.PairCache
	schwarzS float64 // time to compute the Schwarz bounds
	cacheS   float64 // time to build the shell-pair cache
	totalS   float64 // basis + engine + Schwarz + pair cache
}

// setupSystem builds the basis, engine, Schwarz bounds and pair cache.
func setupSystem(mol *molecule.Molecule, basisName string) (*system, error) {
	t0 := time.Now()
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(b)
	t1 := time.Now()
	sch := integrals.ComputeSchwarz(eng)
	t2 := time.Now()
	cache := integrals.NewPairCache(eng, 0)
	t3 := time.Now()
	return &system{eng: eng, sch: sch, cache: cache,
		schwarzS: seconds(t2.Sub(t1)), cacheS: seconds(t3.Sub(t2)), totalS: seconds(t3.Sub(t0))}, nil
}

// setupRepeated runs setupSystem setupReps times and returns the last
// system with the median of each timing.
func setupRepeated(mol *molecule.Molecule, basisName string) (*system, error) {
	var tot, sch, pc []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		s, err := setupSystem(mol, basisName)
		if err != nil {
			return nil, err
		}
		sys = s
		tot = append(tot, s.totalS)
		sch = append(sch, s.schwarzS)
		pc = append(pc, s.cacheS)
	}
	sys.totalS, sys.schwarzS, sys.cacheS = median(tot), median(sch), median(pc)
	return sys, nil
}

// chainMolecule is a linear chain of chainUnits H2 units along z. The
// seed jitters each bond length by up to ±1%; units sit 1.6 Å apart.
func chainMolecule(seed int64) *molecule.Molecule {
	rng := rand.New(rand.NewSource(seed))
	m := &molecule.Molecule{Name: fmt.Sprintf("H2-chain-%d", chainUnits)}
	z := 0.0
	for u := 0; u < chainUnits; u++ {
		bond := 0.74 * (1 + 0.02*(rng.Float64()-0.5))
		m.AddAtomAngstrom("H", 0, 0, z)
		m.AddAtomAngstrom("H", 0, 0, z+bond)
		z += bond + 1.6
	}
	return m
}

// solveTrace is what a traced solve records from outside the program.
type solveTrace struct {
	src    *countingSource
	builds *buildLog
	iters  *iterClock
}

func newSolveTrace(sys *system) *solveTrace {
	return &solveTrace{src: &countingSource{src: sys.cache}, builds: &buildLog{}, iters: &iterClock{}}
}

// solveOutcome is one SCF solve: its wall from entering the driver to a
// checked energy, and what the driver returned.
type solveOutcome struct {
	start, end time.Time
	res        *scf.Result
	info       *scf.PurifyInfo
	msgs, flts int64
	quartets   int64 // fock.Stats.QuartetsComputed summed over ranks
	err        error
}

func (o *solveOutcome) wall() float64 { return seconds(o.end.Sub(o.start)) }

// solveShared runs the replicated-density SCF with the shared-Fock
// builder (Algorithm 3) on ranks x threads. tr, when non-nil, wraps the
// quartet source and builder and stamps iterations.
func solveShared(sys *system, ranks, threads int, tr *solveTrace) *solveOutcome {
	out := &solveOutcome{start: time.Now()}
	results := make([]*scf.Result, ranks)
	errs := make([]error, ranks)
	var src integrals.QuartetSource = sys.cache
	if tr != nil {
		src = tr.src
	}
	runErr := mpi.Run(ranks, func(c *mpi.Comm) {
		dx := ddi.New(c)
		b := scf.ParallelBuilder(scf.AlgSharedFock, dx, sys.eng, sys.sch,
			fock.Config{Threads: threads, Quartets: src})
		opt := scf.Options{}
		if tr != nil && c.Rank() == 0 {
			// Builds are collective: rank 0's spans stand for the world's.
			b = timedBuilder(b, tr.src, tr.builds)
			opt.OnIteration = tr.iters.hook
		}
		results[c.Rank()], errs[c.Rank()] = scf.RunRHF(sys.eng, b, opt)
		c.Barrier()
		if c.Rank() == 0 {
			out.msgs, out.flts, _, _ = c.WorldStats()
		}
	})
	out.res = results[0]
	for r := range results {
		if results[r] != nil {
			out.quartets += results[r].TotalFockStats.QuartetsComputed
		}
	}
	out.err = firstErr(append(errs, runErr)...)
	return out
}

// solvePurified runs scf.RunRHFPurified on ranks ranks.
func solvePurified(sys *system, ranks int, tr *solveTrace) *solveOutcome {
	var src integrals.QuartetSource = sys.cache
	if tr != nil {
		src = tr.src
	}
	out := &solveOutcome{start: time.Now()}
	out.res, out.info, out.err = scf.RunRHFPurified(sys.eng, sys.sch, scf.PurifiedOptions{
		Ranks: ranks,
		Fock:  fock.Config{Quartets: src},
	})
	return out
}

// finish closes a solve: it must have returned without error, converged
// and, when ref is known (not NaN), reproduced it. The end stamp is
// taken after the check.
func finish(o *solveOutcome, ref float64) error {
	defer func() { o.end = time.Now() }()
	if o.err != nil {
		return o.err
	}
	if o.res == nil || !o.res.Converged {
		return fmt.Errorf("scf did not converge")
	}
	if !math.IsNaN(ref) {
		return checkEnergy(o, ref)
	}
	return nil
}

// checkEnergy compares a finished solve's energy with ref.
func checkEnergy(o *solveOutcome, ref float64) error {
	if d := math.Abs(o.res.Energy - ref); !(d <= energyTol) {
		return fmt.Errorf("energy %.10f differs from reference %.10f by %.2e", o.res.Energy, ref, d)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
