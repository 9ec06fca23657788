package scf

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

func uhfSetup(t *testing.T, mol *molecule.Molecule, set string) *integrals.Engine {
	t.Helper()
	b, err := basis.Build(mol, set)
	if err != nil {
		t.Fatal(err)
	}
	return integrals.NewEngine(b)
}

func TestUHFHydrogenAtom(t *testing.T) {
	m := &molecule.Molecule{Name: "H"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	eng := uhfSetup(t, m, "sto-3g")
	res, err := RunUHF(eng, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("H atom did not converge")
	}
	// STO-3G hydrogen atom: -0.4666 hartree (basis-set limited vs exact -0.5).
	if math.Abs(res.Energy-(-0.46658)) > 5e-3 {
		t.Fatalf("H atom UHF = %v", res.Energy)
	}
	// A doublet with one electron has no spin contamination: <S^2> = 0.75.
	if math.Abs(res.SSquared-0.75) > 1e-8 {
		t.Fatalf("<S^2> = %v want 0.75", res.SSquared)
	}
	if res.NumAlpha != 1 || res.NumBeta != 0 {
		t.Fatalf("occupations %d/%d", res.NumAlpha, res.NumBeta)
	}
}

func TestUHFSingletMatchesRHF(t *testing.T) {
	// For a well-behaved closed-shell molecule, UHF collapses to RHF.
	mol := molecule.Water()
	eng := uhfSetup(t, mol, "sto-3g")
	sch := integrals.ComputeSchwarz(eng)
	rhf, err := RunRHF(eng, SerialBuilder(eng, sch, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	uhf, err := RunUHF(eng, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !uhf.Converged {
		t.Fatal("UHF water did not converge")
	}
	if math.Abs(uhf.Energy-rhf.Energy) > 1e-7 {
		t.Fatalf("UHF %v vs RHF %v", uhf.Energy, rhf.Energy)
	}
	// Closed-shell singlet: <S^2> = 0.
	if math.Abs(uhf.SSquared) > 1e-6 {
		t.Fatalf("<S^2> = %v want 0", uhf.SSquared)
	}
}

func TestUHFTripletOxygen(t *testing.T) {
	// O2 is the canonical UHF triplet.
	m := &molecule.Molecule{Name: "O2"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("O", 0, 0, 1.2075)
	eng := uhfSetup(t, m, "sto-3g")
	res, err := RunUHF(eng, 3, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("O2 triplet did not converge")
	}
	// Literature UHF/STO-3G O2 is about -147.6 hartree.
	if res.Energy < -148.2 || res.Energy > -147.0 {
		t.Fatalf("O2 UHF energy = %v", res.Energy)
	}
	if res.NumAlpha != 9 || res.NumBeta != 7 {
		t.Fatalf("occupations %d/%d", res.NumAlpha, res.NumBeta)
	}
	// <S^2> for a triplet is >= 2 (2.0 exact; contamination raises it).
	if res.SSquared < 1.9 || res.SSquared > 2.3 {
		t.Fatalf("<S^2> = %v", res.SSquared)
	}
	// The triplet must lie below the closed-shell singlet at this geometry
	// (Hund's rule at the UHF level).
	singlet, err := RunUHF(eng, 1, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if singlet.Converged && res.Energy >= singlet.Energy {
		t.Fatalf("triplet %v not below singlet %v", res.Energy, singlet.Energy)
	}
}

func TestSerialUHFSweepsOncePerIteration(t *testing.T) {
	// Both spins' J and K come from one quartet sweep: a serial UHF
	// iteration evaluates exactly the quartets of one serial RHF build.
	m := &molecule.Molecule{Name: "O2"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("O", 0, 0, 1.2075)
	eng := uhfSetup(t, m, "sto-3g")
	res, err := RunUHF(eng, 3, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	sch := integrals.ComputeSchwarz(eng)
	_, rhf := fock.SerialBuild(eng, sch, linalg.NewSquare(eng.Basis.NumBF), fock.DefaultTau)
	total := res.TotalStats.QuartetsComputed
	if perIter := total / int64(res.Iterations); perIter != rhf.QuartetsComputed ||
		total%int64(res.Iterations) != 0 {
		t.Fatalf("%d quartets over %d iterations (%d per iteration), one RHF build computes %d",
			total, res.Iterations, perIter, rhf.QuartetsComputed)
	}
}

func TestUHFValidation(t *testing.T) {
	mol := molecule.Water()
	eng := uhfSetup(t, mol, "sto-3g")
	if _, err := RunUHF(eng, 0, Options{}); err == nil {
		t.Fatal("multiplicity 0 should be rejected")
	}
	if _, err := RunUHF(eng, 2, Options{}); err == nil {
		t.Fatal("doublet with 10 electrons should be rejected")
	}
	if _, err := RunUHF(eng, 100, Options{}); err == nil {
		t.Fatal("impossible multiplicity should be rejected")
	}
}

func TestParallelUHFMatchesSerial(t *testing.T) {
	// EXP-V1 for the UHF extension: every parallel J/K algorithm drives
	// a full UHF to the same energy as the serial path.
	m := &molecule.Molecule{Name: "O2"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("O", 0, 0, 1.2075)
	eng := uhfSetup(t, m, "sto-3g")
	serial, err := RunUHF(eng, 3, Options{MaxIter: 200})
	if err != nil || !serial.Converged {
		t.Fatalf("serial UHF failed: %v", err)
	}
	sch := integrals.ComputeSchwarz(eng)
	for _, alg := range Algorithms {
		energies := make([]float64, 2)
		err := mpi.Run(2, func(c *mpi.Comm) {
			builder := ParallelJKBuilder(alg, ddi.New(c), eng, sch, fock.Config{Threads: 2})
			res, err := RunUHFWithBuilder(eng, 3, builder, Options{MaxIter: 200})
			if err != nil {
				t.Error(err)
				return
			}
			energies[c.Rank()] = res.Energy
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for r, e := range energies {
			if math.Abs(e-serial.Energy) > 1e-8 {
				t.Fatalf("%s rank %d: UHF energy %v vs serial %v", alg, r, e, serial.Energy)
			}
		}
	}
}
