package fock

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// testDensity builds a plausible symmetric positive density-like matrix
// from the core Hamiltonian guess so the Fock builders are exercised with
// realistic magnitudes (not just random noise).
func testDensity(eng *integrals.Engine, nocc int) *linalg.Matrix {
	h := eng.CoreHamiltonian()
	s := eng.Overlap()
	x, err := linalg.LowdinOrthogonalizer(s, 1e-10)
	if err != nil {
		panic(err)
	}
	fp := linalg.TripleProduct(x, h)
	_, cp := linalg.EigenSym(fp)
	c := linalg.Mul(x, cp)
	n := eng.Basis.NumBF
	d := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum := 0.0
			for o := 0; o < nocc; o++ {
				sum += c.At(a, o) * c.At(b, o)
			}
			d.Set(a, b, 2*sum)
		}
	}
	return d
}

func setup(t testing.TB, mol *molecule.Molecule, set string) (*integrals.Engine, *integrals.Schwarz, *linalg.Matrix) {
	t.Helper()
	b, err := basis.Build(mol, set)
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	d := testDensity(eng, mol.NumElectrons()/2)
	return eng, sch, d
}

func TestSerialMatchesDenseReference(t *testing.T) {
	// The fundamental correctness check: the symmetry-folded quartet loop
	// must reproduce the textbook dense contraction.
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.H2(), "sto-3g"},
		{molecule.Water(), "sto-3g"},
		{molecule.Water(), "6-31g"},
	} {
		eng, sch, d := setup(t, tc.mol, tc.set)
		got, stats := SerialBuild(eng, sch, d, 1e-14)
		want := ReferenceFock2e(eng, d)
		if diff := got.MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s/%s: serial vs dense reference diff = %v", tc.mol.Name, tc.set, diff)
		}
		if stats.QuartetsComputed == 0 {
			t.Fatal("no quartets computed")
		}
	}
}

func TestSerialWithPolarization(t *testing.T) {
	// d functions (6-31G(d) on CH4's carbon) exercise the L=2 paths.
	eng, sch, d := setup(t, molecule.Methane(), "6-31g(d)")
	got, _ := SerialBuild(eng, sch, d, 1e-14)
	want := ReferenceFock2e(eng, d)
	if diff := got.MaxAbsDiff(want); diff > 1e-9 {
		t.Fatalf("CH4/6-31G(d): diff = %v", diff)
	}
}

func TestSerialScreeningConsistency(t *testing.T) {
	// A loose threshold must stay close to the tight result and strictly
	// reduce work.
	eng, sch, d := setup(t, molecule.GrapheneFlake(4), "sto-3g")
	tight, st1 := SerialBuild(eng, sch, d, 1e-14)
	loose, st2 := SerialBuild(eng, sch, d, 1e-6)
	if st2.QuartetsComputed >= st1.QuartetsComputed {
		t.Fatalf("screening removed nothing: %d vs %d", st2.QuartetsComputed, st1.QuartetsComputed)
	}
	if diff := tight.MaxAbsDiff(loose); diff > 1e-4 {
		t.Fatalf("screened result drifted too far: %v", diff)
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	for ij := 0; ij < 50000; ij++ {
		i, j := PairDecode(ij)
		if j > i || j < 0 {
			t.Fatalf("PairDecode(%d) = (%d,%d) not canonical", ij, i, j)
		}
		if PairIndex(i, j) != ij {
			t.Fatalf("round trip failed at %d: (%d,%d)", ij, i, j)
		}
	}
}

func TestQuartetEnumerationCanonical(t *testing.T) {
	// The (i, j<=i, k<=i, l<=lmax) loops must enumerate every unordered
	// quartet pair {(ij),(kl)} exactly once.
	ns := 7
	seen := map[[2]int]int{}
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= i; k++ {
				lmax := quartetLoopBounds(i, j, k)
				for l := 0; l <= lmax; l++ {
					pab, pcd := PairIndex(i, j), PairIndex(k, l)
					key := [2]int{pab, pcd}
					seen[key]++
				}
			}
		}
	}
	np := NumPairs(ns)
	want := np * (np + 1) / 2
	if len(seen) != want {
		t.Fatalf("enumerated %d distinct pair-pairs, want %d", len(seen), want)
	}
	for key, count := range seen {
		if count != 1 {
			t.Fatalf("pair-pair %v enumerated %d times", key, count)
		}
		if key[1] > key[0] {
			t.Fatalf("non-canonical pair-pair %v", key)
		}
	}
}

func buildersAgreeOn(t *testing.T, mol *molecule.Molecule, set string, ranks, threads int) {
	t.Helper()
	eng, sch, d := setup(t, mol, set)
	want, _ := SerialBuild(eng, sch, d, DefaultTau)

	run := func(name string, build func(dx *ddi.Context) *linalg.Matrix) {
		results := make([]*linalg.Matrix, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) {
			dx := ddi.New(c)
			results[c.Rank()] = build(dx)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := 0; r < ranks; r++ {
			if diff := results[r].MaxAbsDiff(want); diff > 1e-10 {
				t.Fatalf("%s rank %d: diff vs serial = %v", name, r, diff)
			}
		}
	}

	cfg := Config{Threads: threads}
	run("mpi-only", func(dx *ddi.Context) *linalg.Matrix {
		f, _ := MPIOnlyBuild(dx, eng, sch, d, cfg)
		return f
	})
	run("private-fock", func(dx *ddi.Context) *linalg.Matrix {
		f, _ := PrivateFockBuild(dx, eng, sch, d, cfg)
		return f
	})
	run("shared-fock", func(dx *ddi.Context) *linalg.Matrix {
		f, _ := SharedFockBuild(dx, eng, sch, d, cfg)
		return f
	})
}

func TestAllBuildersAgreeWater(t *testing.T) {
	buildersAgreeOn(t, molecule.Water(), "sto-3g", 3, 2)
}

func TestAllBuildersAgreeWater631G(t *testing.T) {
	buildersAgreeOn(t, molecule.Water(), "6-31g", 2, 3)
}

func TestAllBuildersAgreeMethanePolarized(t *testing.T) {
	buildersAgreeOn(t, molecule.Methane(), "6-31g(d)", 2, 2)
}

func TestAllBuildersAgreeGrapheneFlake(t *testing.T) {
	// A small all-carbon flake: the actual workload type of the paper.
	buildersAgreeOn(t, molecule.GrapheneFlake(4), "sto-3g", 4, 3)
}

func TestBuildersSingleRankSingleThread(t *testing.T) {
	buildersAgreeOn(t, molecule.H2(), "sto-3g", 1, 1)
}

func TestBuildersManyRanksFewShells(t *testing.T) {
	// More ranks than DLB tasks: some ranks do nothing; result must hold.
	buildersAgreeOn(t, molecule.H2(), "sto-3g", 6, 2)
}

func TestSharedFockSchedules(t *testing.T) {
	// The paper observed no significant difference between OpenMP
	// schedules; all must at least be correct.
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	want, _ := SerialBuild(eng, sch, d, DefaultTau)
	for _, sched := range []omp.Schedule{
		{Kind: omp.Static}, {Kind: omp.Dynamic, Chunk: 1},
		{Kind: omp.Dynamic, Chunk: 4}, {Kind: omp.Guided},
	} {
		err := mpi.Run(2, func(c *mpi.Comm) {
			f, _ := SharedFockBuild(ddi.New(c), eng, sch, d,
				Config{Threads: 3, Schedule: sched})
			if diff := f.MaxAbsDiff(want); diff > 1e-10 {
				t.Errorf("schedule %v: diff %v", sched, diff)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSharedFockFlushCounting(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	err := mpi.Run(1, func(c *mpi.Comm) {
		_, stats := SharedFockBuild(ddi.New(c), eng, sch, d, Config{Threads: 2})
		if stats.Flushes == 0 {
			t.Error("shared-Fock build reported no flushes")
		}
		if stats.QuartetsComputed == 0 {
			t.Error("no quartets computed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsPartitionAcrossRanks(t *testing.T) {
	// Summed over ranks, computed+screened quartets must equal the serial
	// totals (each quartet belongs to exactly one rank).
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	_, serialStats := SerialBuild(eng, sch, d, DefaultTau)
	perRank := make([]Stats, 3)
	err := mpi.Run(3, func(c *mpi.Comm) {
		_, st := MPIOnlyBuild(ddi.New(c), eng, sch, d, Config{})
		perRank[c.Rank()] = st
	})
	if err != nil {
		t.Fatal(err)
	}
	var total Stats
	for _, st := range perRank {
		total.Add(st)
	}
	if total.QuartetsComputed != serialStats.QuartetsComputed {
		t.Fatalf("computed quartets %d != serial %d", total.QuartetsComputed, serialStats.QuartetsComputed)
	}
	if total.QuartetsScreened != serialStats.QuartetsScreened {
		t.Fatalf("screened quartets %d != serial %d", total.QuartetsScreened, serialStats.QuartetsScreened)
	}
}

func TestFinalizeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := linalg.NewSquare(6)
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	Finalize(m)
	if !m.IsSymmetric(0) {
		t.Fatal("Finalize did not produce a symmetric matrix")
	}
}

func TestMemoryFootprints(t *testing.T) {
	// Table 2 shape: at N=5340 (2.0 nm), MPI-only with 256 ranks is about
	// 50x the private-Fock and 200x the shared-Fock node footprints.
	nbf := 5340
	mpiF := MPIOnlyFootprint(nbf, 256, 0)
	prF := PrivateFockFootprint(nbf, 64, 4, 0)
	shF := SharedFockFootprint(nbf, 4, 0)
	if mpiF.PerNodeBytes() <= prF.PerNodeBytes() || prF.PerNodeBytes() <= shF.PerNodeBytes() {
		t.Fatal("footprint ordering wrong")
	}
	ratioPr := float64(mpiF.PerNodeBytes()) / float64(prF.PerNodeBytes())
	ratioSh := float64(mpiF.PerNodeBytes()) / float64(shF.PerNodeBytes())
	if ratioPr < 2 || ratioPr > 3 {
		t.Fatalf("MPI/private ratio = %v (want ~2.4: 256*2.5 / (4*66))", ratioPr)
	}
	if ratioSh < 40 || ratioSh > 50 {
		t.Fatalf("MPI/shared ratio = %v (want ~45.7: 256*2.5 / (4*3.5))", ratioSh)
	}
}

func TestBufferBytes(t *testing.T) {
	if got := BufferBytes(100, 6, 4); got != 2*4*6*100*8 {
		t.Fatalf("BufferBytes = %d", got)
	}
}

// serialJK is the serial J/K split with a single exchange density.
func serialJK(eng *integrals.Engine, sch *integrals.Schwarz, dj, dk *linalg.Matrix,
	tau float64) (j, k *linalg.Matrix) {
	r := SerialBuildJK(eng, sch, dj, dk, nil, tau)
	return r.J, r.KA
}

func TestSerialBuildJKConsistentWithCombined(t *testing.T) {
	// G = J(D) - K(D)/2 must reproduce the combined kernel exactly.
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	g, _ := SerialBuild(eng, sch, d, 1e-14)
	j, k := serialJK(eng, sch, d, d, 1e-14)
	combo := j.Clone()
	combo.AxpyFrom(-0.5, k)
	if diff := combo.MaxAbsDiff(g); diff > 1e-10 {
		t.Fatalf("J - K/2 vs combined kernel: diff %v", diff)
	}
	if !j.IsSymmetric(1e-10) || !k.IsSymmetric(1e-10) {
		t.Fatal("J or K not symmetric")
	}
}

func TestSerialBuildJKSeparateDensities(t *testing.T) {
	// J must depend only on dj and K only on dk.
	eng, sch, d := setup(t, molecule.H2(), "sto-3g")
	zero := linalg.NewSquare(d.Rows)
	j1, k1 := serialJK(eng, sch, d, zero, 1e-14)
	j2, k2 := serialJK(eng, sch, zero, d, 1e-14)
	if k1.FrobeniusNorm() > 1e-12 {
		t.Fatal("K nonzero for zero exchange density")
	}
	if j2.FrobeniusNorm() > 1e-12 {
		t.Fatal("J nonzero for zero Coulomb density")
	}
	if j1.FrobeniusNorm() == 0 || k2.FrobeniusNorm() == 0 {
		t.Fatal("J/K vanished for nonzero densities")
	}
}

// denseJK contracts the full ERI tensor with no symmetry tricks:
// J_ab = sum_cd dj_cd (ab|cd) and K_ab = sum_cd dk_cd (ac|bd).
func denseJK(eng *integrals.Engine, dj, dk *linalg.Matrix) (j, k *linalg.Matrix) {
	n := eng.Basis.NumBF
	tensor := eng.FullERITensor()
	j, k = linalg.NewSquare(n), linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var sumJ, sumK float64
			for c := 0; c < n; c++ {
				for dd := 0; dd < n; dd++ {
					sumJ += dj.At(c, dd) * tensor[((a*n+b)*n+c)*n+dd]
					sumK += dk.At(c, dd) * tensor[((a*n+c)*n+b)*n+dd]
				}
			}
			j.Set(a, b, sumJ)
			k.Set(a, b, sumK)
		}
	}
	return j, k
}

func TestJKAgainstDenseReference(t *testing.T) {
	// Full dense J and K from the raw tensor on a tiny system.
	eng, sch, d := setup(t, molecule.H2(), "sto-3g")
	j, k := serialJK(eng, sch, d, d, 1e-14)
	wantJ, wantK := denseJK(eng, d, d)
	n := eng.Basis.NumBF
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if math.Abs(j.At(a, b)-wantJ.At(a, b)) > 1e-10 {
				t.Fatalf("J[%d,%d] = %v want %v", a, b, j.At(a, b), wantJ.At(a, b))
			}
			if math.Abs(k.At(a, b)-wantK.At(a, b)) > 1e-10 {
				t.Fatalf("K[%d,%d] = %v want %v", a, b, k.At(a, b), wantK.At(a, b))
			}
		}
	}
}

func TestParallelJKNilSecondExchange(t *testing.T) {
	eng, sch, d := setup(t, molecule.H2(), "sto-3g")
	err := mpi.Run(2, func(c *mpi.Comm) {
		res := SharedFockBuildJK(ddi.New(c), eng, sch, d, d, nil, Config{Threads: 2})
		if res.KB != nil {
			t.Error("KB should be nil when dkb is nil")
		}
		wantJ, wantK := serialJK(eng, sch, d, d, DefaultTau)
		if res.J.MaxAbsDiff(wantJ) > 1e-10 || res.KA.MaxAbsDiff(wantK) > 1e-10 {
			t.Error("nil-KB build mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// onRanks runs build on every rank of a fresh world and returns each
// rank's result.
func onRanks[T any](t *testing.T, ranks int, build func(dx *ddi.Context) T) []T {
	t.Helper()
	out := make([]T, ranks)
	if err := mpi.Run(ranks, func(c *mpi.Comm) { out[c.Rank()] = build(ddi.New(c)) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// tiledG runs TiledBuild over tiles of edge bs and gathers the Fock
// matrix on every rank.
func tiledG(t *testing.T, dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	d *linalg.Matrix, bs int, cfg Config) *linalg.Matrix {
	n := eng.Basis.NumBF
	g := distmat.NewGrid(dx.Comm.Rank(), dx.Comm.Size())
	dd, df := distmat.New(g, dx, n, bs), distmat.New(g, dx, n, bs)
	if err := dd.ScatterDense(d); err != nil {
		t.Errorf("scatter: %v", err)
		return nil
	}
	df.Zero()
	TiledBuild(dx, eng, sch, distmat.NewTileReader(dd, 6), distmat.NewTileAccum(df, 6), cfg)
	distmat.UnfoldLower(df)
	f, err := df.GatherVerified()
	if err != nil {
		t.Errorf("gather: %v", err)
	}
	return f
}

// TestDistributionsAgree runs every distribution of the one quartet
// sweep against the dense references at 1e-10: G(D) from the serial,
// mpi-only, private, shared, resilient and tiled builds against
// ReferenceFock2e, and J/KA/KB from the serial sweep and the three paper
// algorithms, with and without the second exchange density, against the
// dense J/K contraction. Rank and thread counts come from a seeded RNG.
func TestDistributionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range []struct {
		name      string
		mol       *molecule.Molecule
		set       string
		pairCache bool
	}{
		{"water-sto-3g", molecule.Water(), "sto-3g", false},
		// Every builder on a PairCache integral source.
		{"water-6-31g-paircache", molecule.Water(), "6-31g", true},
	} {
		ranks, threads, bs := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4)
		t.Run(in.name, func(t *testing.T) {
			t.Logf("%d ranks x %d threads, %d-wide tiles", ranks, threads, bs)
			eng, sch, d := setup(t, in.mol, in.set)
			cfg := Config{Threads: threads}
			if in.pairCache {
				cfg.Quartets = integrals.NewPairCache(eng, 0)
			}
			// Distinct exchange densities: scaled copies of d.
			dka, dkb := d.Clone(), d.Clone()
			dka.Scale(0.5)
			dkb.Scale(0.25)
			wantG := ReferenceFock2e(eng, d)
			wantJ, wantKA := denseJK(eng, d, dka)
			_, wantKB := denseJK(eng, d, dkb)
			check := func(what string, got, want *linalg.Matrix) {
				t.Helper()
				if diff := got.MaxAbsDiff(want); diff > 1e-10 {
					t.Errorf("%s: diff vs dense reference %g", what, diff)
				}
			}

			serialG, _ := SerialBuild(eng, sch, d, DefaultTau)
			check("serial G", serialG, wantG)
			for _, b := range []struct {
				name  string
				build func(dx *ddi.Context) *linalg.Matrix
			}{
				{"mpi-only", func(dx *ddi.Context) *linalg.Matrix { g, _ := MPIOnlyBuild(dx, eng, sch, d, cfg); return g }},
				{"private", func(dx *ddi.Context) *linalg.Matrix { g, _ := PrivateFockBuild(dx, eng, sch, d, cfg); return g }},
				{"shared", func(dx *ddi.Context) *linalg.Matrix { g, _ := SharedFockBuild(dx, eng, sch, d, cfg); return g }},
				{"resilient", func(dx *ddi.Context) *linalg.Matrix { g, _ := ResilientBuild(dx, eng, sch, d, cfg); return g }},
				{"tiled", func(dx *ddi.Context) *linalg.Matrix { return tiledG(t, dx, eng, sch, d, bs, cfg) }},
			} {
				for r, g := range onRanks(t, ranks, b.build) {
					if g != nil {
						check(fmt.Sprintf("%s G rank %d", b.name, r), g, wantG)
					}
				}
			}

			for _, b := range []struct {
				name  string
				build func(dx *ddi.Context, dkb *linalg.Matrix) JKResult
			}{
				{"serial", func(_ *ddi.Context, dkb *linalg.Matrix) JKResult {
					return SerialBuildJK(eng, sch, d, dka, dkb, DefaultTau)
				}},
				{"mpi-only", func(dx *ddi.Context, dkb *linalg.Matrix) JKResult {
					return MPIOnlyBuildJK(dx, eng, sch, d, dka, dkb, cfg)
				}},
				{"private", func(dx *ddi.Context, dkb *linalg.Matrix) JKResult {
					return PrivateFockBuildJK(dx, eng, sch, d, dka, dkb, cfg)
				}},
				{"shared", func(dx *ddi.Context, dkb *linalg.Matrix) JKResult {
					return SharedFockBuildJK(dx, eng, sch, d, dka, dkb, cfg)
				}},
			} {
				for _, kb := range []*linalg.Matrix{dkb, nil} {
					results := onRanks(t, ranks, func(dx *ddi.Context) JKResult { return b.build(dx, kb) })
					for r, res := range results {
						what := fmt.Sprintf("%s rank %d (dkb nil: %v)", b.name, r, kb == nil)
						check(what+" J", res.J, wantJ)
						check(what+" KA", res.KA, wantKA)
						switch {
						case kb == nil && res.KB != nil:
							t.Errorf("%s: KB should be nil when dkb is nil", what)
						case kb != nil:
							check(what+" KB", res.KB, wantKB)
						}
					}
				}
			}
		})
	}
}

func TestDensityScreenedBuildMatches(t *testing.T) {
	// With a realistic density the density-weighted screen must stay
	// within the screening tolerance of the plain build.
	eng, sch, d := setup(t, molecule.GrapheneFlake(4), "sto-3g")
	plain, plainStats := SerialBuild(eng, sch, d, 1e-10)
	screened, scrStats := DensityScreenedBuild(eng, sch, d, 1e-10)
	if diff := plain.MaxAbsDiff(screened); diff > 1e-7 {
		t.Fatalf("density screening drifted: %v", diff)
	}
	if scrStats.QuartetsComputed > plainStats.QuartetsComputed {
		t.Fatal("density screening computed MORE quartets")
	}
}

func TestIncrementalBuilderSCFWork(t *testing.T) {
	// Incremental builds must shrink per-iteration work as dD -> 0 while
	// reproducing the direct result.
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	ib := NewIncrementalBuilder(eng, sch, 1e-10)
	want, _ := SerialBuild(eng, sch, d, 1e-12)
	g1, s1 := ib.Build(d)
	if diff := g1.MaxAbsDiff(want); diff > 1e-7 {
		t.Fatalf("first incremental build diff %v", diff)
	}
	// Tiny density change: the delta build must do (much) less work.
	d2 := d.Clone()
	d2.Add(0, 0, 1e-9)
	g2, s2 := ib.Build(d2)
	want2, _ := SerialBuild(eng, sch, d2, 1e-12)
	if diff := g2.MaxAbsDiff(want2); diff > 1e-6 {
		t.Fatalf("incremental drifted: %v", diff)
	}
	if s2.QuartetsComputed >= s1.QuartetsComputed {
		t.Fatalf("delta build did not shrink: %d vs %d", s2.QuartetsComputed, s1.QuartetsComputed)
	}
	// Reset forces a full rebuild.
	ib.Reset()
	_, s3 := ib.Build(d2)
	if s3.QuartetsComputed < s1.QuartetsComputed/2 {
		t.Fatalf("post-reset build suspiciously small: %d", s3.QuartetsComputed)
	}
}
