package fock

import (
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// SerialBuild constructs the two-electron Fock matrix on one thread,
// sweeping the canonical symmetry-unique quartets with Schwarz screening
// at tau (0 means DefaultTau). It is the correctness reference for all
// parallel variants and the single-core baseline of the benchmarks.
func SerialBuild(eng *integrals.Engine, sch *integrals.Schwarz,
	d *linalg.Matrix, tau float64) (*linalg.Matrix, Stats) {
	return gResult(serial(newPlan(eng, sch, Config{Tau: tau}, gTarget(density{m: d}))))
}

// SerialBuildJK is SerialBuild split for unrestricted Hartree-Fock: one
// sweep yields J(dj), K(dka) and, unless dkb is nil, K(dkb) (see
// JKResult). The restricted G(D) is J(D) - K(D)/2.
func SerialBuildJK(eng *integrals.Engine, sch *integrals.Schwarz,
	dj, dka, dkb *linalg.Matrix, tau float64) JKResult {
	return jkResult(serial(newPlan(eng, sch, Config{Tau: tau}, jkTargets(dj, dka, dkb))))
}

// serial sweeps every canonical pair in order on one thread.
func serial(p *plan) ([]*linalg.Matrix, Stats) {
	accs := p.accumulators()
	w := p.worker(lower(accs))
	for ij := 0; ij < NumPairs(len(p.shells)); ij++ {
		i, j := PairDecode(ij)
		w.sweep(i, j, 0, ij)
	}
	for _, acc := range accs {
		Finalize(acc)
	}
	return accs, w.stats
}

// ReferenceFock2e builds the two-electron Fock matrix with no symmetry
// tricks at all: the full ERI tensor contracted directly with the density
// by the textbook formula G_ab = sum_cd D_cd [(ab|cd) - (ac|bd)/2].
// Exponential in memory (N^4) — for validation on small molecules only.
func ReferenceFock2e(eng *integrals.Engine, d *linalg.Matrix) *linalg.Matrix {
	n := eng.Basis.NumBF
	tensor := eng.FullERITensor()
	g := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum := 0.0
			for c := 0; c < n; c++ {
				for dd := 0; dd < n; dd++ {
					sum += d.At(c, dd) * (tensor[((a*n+b)*n+c)*n+dd] -
						0.5*tensor[((a*n+c)*n+b)*n+dd])
				}
			}
			g.Set(a, b, sum)
		}
	}
	return g
}
