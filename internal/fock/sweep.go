package fock

import (
	"repro/internal/basis"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// density is a matrix the digest reads: a replicated matrix, or elements
// fetched through a bounded tile reader (TiledBuild). The zero value is
// no density; the digest then skips the updates that would read it.
type density struct {
	m    *linalg.Matrix
	tile *distmat.TileReader
}

func (d *density) none() bool { return d.m == nil && d.tile == nil }

// at reads element (x, y). It sits in the digest's innermost loop and is
// kept just small enough for the compiler to inline.
func (d *density) at(x, y int) float64 {
	if d.tile != nil {
		return d.tile.At(x, y)
	}
	return d.m.Data[x*d.m.Cols+y]
}

// target is one output matrix of a build. Its Coulomb updates (eqs. 2a,
// 2b) read dj with weight 2 and its exchange updates (eqs. 2c-2f) read
// dk with weight wk. The restricted G(D) = J(D) - K(D)/2 is one target;
// UHF needs J(D_total) and one full K per spin as separate targets.
type target struct {
	dj, dk density
	wk     float64
}

// gTarget is the restricted two-electron Fock matrix G(D).
func gTarget(d density) []target { return []target{{dj: d, dk: d, wk: -0.5}} }

// jkTargets are J(dj), K(dka) and, unless dkb is nil, K(dkb).
func jkTargets(dj, dka, dkb *linalg.Matrix) []target {
	outs := []target{{dj: density{m: dj}}, {dk: density{m: dka}, wk: 1}}
	if dkb != nil {
		outs = append(outs, target{dk: density{m: dkb}, wk: 1})
	}
	return outs
}

// JKResult bundles the outputs of a J/K-split build: the Coulomb matrix
// J(dj) and the full exchange matrices K(dka) and K(dkb),
//
//	J_ab = sum_cd dj_cd (ab|cd)        K_ab = sum_cd dk_cd (ac|bd)
//
// which is what one UHF iteration needs (F_sigma = H + J(D_total) -
// K(D_sigma)). KB is nil when dkb was nil.
type JKResult struct {
	J, KA, KB *linalg.Matrix
	Stats     Stats
}

func jkResult(m []*linalg.Matrix, st Stats) JKResult {
	r := JKResult{J: m[0], KA: m[1], Stats: st}
	if len(m) == 3 {
		r.KB = m[2]
	}
	return r
}

func gResult(m []*linalg.Matrix, st Stats) (*linalg.Matrix, Stats) { return m[0], st }

// sink receives one of the six updates of eqs. 2a-2f: add v at the
// unordered index pair {x, y}. role names the update so the shared-Fock
// distribution can route it to FI, FJ or the shared matrix.
type sink func(role, x, y int, v float64)

// lower returns one sink per accumulator, each adding at the canonical
// lower-triangle slot.
func lower(accs []*linalg.Matrix) []sink {
	add := make([]sink, len(accs))
	for o, acc := range accs {
		add[o] = func(_, x, y int, v float64) { addLower(acc, x, y, v) }
	}
	return add
}

// plan is what every distribution of one build shares: the integral
// source, the screen and the targets.
type plan struct {
	src    integrals.QuartetSource
	sch    *integrals.Schwarz
	bas    *basis.Basis
	shells []basis.Shell
	n      int // basis functions
	tau    float64
	// dmax, when set, holds max|D| per shell pair (packed triangular)
	// and tightens the screen to Q_ij Q_kl max|D| < tau.
	dmax []float64
	outs []target
}

func newPlan(eng *integrals.Engine, sch *integrals.Schwarz, cfg Config, outs []target) *plan {
	return &plan{src: cfg.source(eng), sch: sch, bas: eng.Basis,
		shells: eng.Basis.Shells, n: eng.Basis.NumBF, tau: cfg.tau(), outs: outs}
}

// accumulators returns one zeroed N x N matrix per target.
func (p *plan) accumulators() []*linalg.Matrix {
	accs := make([]*linalg.Matrix, len(p.outs))
	for o := range accs {
		accs[o] = linalg.NewSquare(p.n)
	}
	return accs
}

// worker is one thread's share of a build: a sink per target, its own
// ERI buffer and its counters.
type worker struct {
	*plan
	add   []sink
	buf   []float64
	stats Stats
}

func (p *plan) worker(add []sink) *worker { return &worker{plan: p, add: add} }

// sweep is the one quartet loop of every build: it screens, evaluates
// and digests the quartets (ij|kl) for the combined pair indices kl in
// [lo, hi], where hi <= PairIndex(i, j) keeps each symmetry-unique
// quartet once. Algorithm 1 sweeps a whole pair (lo = 0, hi = ij),
// Algorithm 2 one (j, k) row of l, Algorithm 3 a single kl.
func (w *worker) sweep(i, j, lo, hi int) {
	k, l := PairDecode(lo)
	for kl := lo; kl <= hi; kl++ {
		tau := w.tau
		if w.dmax != nil {
			tau /= w.densityBound(i, j, k, l)
		}
		if w.sch.Screened(i, j, k, l, tau) {
			w.stats.QuartetsScreened++
		} else {
			w.stats.QuartetsComputed++
			w.buf = w.src.ShellQuartet(i, j, k, l, w.buf)
			applyQuartet6(w.buf, w.shells, i, j, k, l, w.outs, w.add)
		}
		if l++; l > k {
			k, l = k+1, 0
		}
	}
}

// applyQuartet6 is the digest: it distributes one symmetry-unique shell
// quartet's ERI block (from ShellQuartet) into every target. For each
// canonical basis-function quartet it emits the paper's six updates
// (eqs. 2a-2f) through add[o](role, x, y, v), where v already includes
// the density factor and symmetry weight. For roles AB/AC/AD, x is the
// basis function in shell i; for roles BD/BC, x is in shell j; for role
// CD, x is in shell k and x >= y always holds. For the other roles y may
// exceed x when shells coincide across the bra/ket boundary; sinks must
// canonicalize.
func applyQuartet6(blk []float64, shells []basis.Shell, i, j, k, l int,
	outs []target, add []sink) {
	si, sj, sk, sl := &shells[i], &shells[j], &shells[k], &shells[l]
	ni, nj := si.NumFuncs(), sj.NumFuncs()
	nk, nl := sk.NumFuncs(), sl.NumFuncs()
	oi, oj, ok, ol := si.BFOffset, sj.BFOffset, sk.BFOffset, sl.BFOffset
	idx := 0
	for fa := 0; fa < ni; fa++ {
		a := oi + fa
		for fb := 0; fb < nj; fb++ {
			b := oj + fb
			for fc := 0; fc < nk; fc++ {
				c := ok + fc
				for fd := 0; fd < nl; fd++ {
					dd := ol + fd
					val := blk[idx]
					idx++
					// Deduplicate only the symmetry images that fall INSIDE
					// this block, i.e. when shells coincide. (A global
					// canonical-BF filter would drop quartets whose BF pair
					// ordering disagrees with the shell pair ordering, e.g.
					// (aa|ca) blocks with c > a on shared centers.)
					if i == j && b > a {
						continue
					}
					if k == l && dd > c {
						continue
					}
					pab, pcd := PairIndex(a, b), PairIndex(c, dd)
					if i == k && j == l && pcd > pab {
						continue
					}
					if val == 0 {
						continue
					}
					s := 1.0
					if a == b {
						s *= 0.5
					}
					if c == dd {
						s *= 0.5
					}
					if pab == pcd {
						s *= 0.5
					}
					// With s = 1/|stabilizer|, summing the true
					// contributions of all eight symmetry images of the
					// quartet gives, per target SLOT: Coulomb 2 s I D and
					// exchange wk s I D for off-diagonal slots; a diagonal
					// slot (x == y) absorbs both mirror images and receives
					// twice that.
					v := s * val
					for o := range outs {
						t, up := &outs[o], add[o]
						if !t.dj.none() { // Coulomb (eqs. 2a, 2b)
							up(roleAB, a, b, diag(a, b, 2*v*t.dj.at(c, dd)))
							up(roleCD, c, dd, diag(c, dd, 2*v*t.dj.at(a, b)))
						}
						if !t.dk.none() { // Exchange (eqs. 2c-2f)
							w := t.wk * v
							up(roleAC, a, c, diag(a, c, w*t.dk.at(b, dd)))
							up(roleBD, b, dd, diag(b, dd, w*t.dk.at(a, c)))
							up(roleAD, a, dd, diag(a, dd, w*t.dk.at(b, c)))
							up(roleBC, b, c, diag(b, c, w*t.dk.at(a, dd)))
						}
					}
				}
			}
		}
	}
}

// diag doubles an update that lands on a diagonal slot.
func diag(x, y int, w float64) float64 {
	if x == y {
		return 2 * w
	}
	return w
}
