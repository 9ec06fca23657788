package scf

import (
	"time"

	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// SerialBuilder returns a Builder running the single-threaded reference
// Fock construction.
func SerialBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) Builder {
	if tau == 0 {
		tau = fock.DefaultTau
	}
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		return fock.SerialBuild(eng, sch, d, tau)
	}
}

// Algorithm selects one of the paper's three Fock-build parallelizations.
type Algorithm string

// The three SCF implementations benchmarked in the paper, plus the
// fault-aware variant added on top of them.
const (
	AlgMPIOnly     Algorithm = "mpi-only"     // Algorithm 1, stock GAMESS
	AlgPrivateFock Algorithm = "private-fock" // Algorithm 2
	AlgSharedFock  Algorithm = "shared-fock"  // Algorithm 3
	// AlgResilientFock is Algorithm 1's distribution on the lease-based
	// DLB with one-sided accumulation: a build survives mid-flight rank
	// death by re-issuing the dead rank's task leases (see
	// fock.ResilientBuild). Not part of the paper's benchmark set.
	AlgResilientFock Algorithm = "resilient-fock"
)

// Algorithms lists the paper's three variants in presentation order.
var Algorithms = []Algorithm{AlgMPIOnly, AlgPrivateFock, AlgSharedFock}

// ParallelBuilder returns a Builder running the chosen algorithm on the
// given DDI context. It must be invoked from inside mpi.Run, and ALL
// ranks must call the resulting builder collectively each iteration.
// When the run carries a telemetry session, every build is wrapped in a
// fock.build span and contributes this rank's load share to the
// imbalance report.
func ParallelBuilder(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) Builder {
	b := func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		switch alg {
		case AlgMPIOnly:
			return fock.MPIOnlyBuild(dx, eng, sch, d, cfg)
		case AlgPrivateFock:
			return fock.PrivateFockBuild(dx, eng, sch, d, cfg)
		case AlgSharedFock:
			return fock.SharedFockBuild(dx, eng, sch, d, cfg)
		case AlgResilientFock:
			return fock.ResilientBuild(dx, eng, sch, d, cfg)
		default:
			panic("scf: unknown algorithm " + string(alg))
		}
	}
	return InstrumentedBuilder(b, dx.Comm.Telemetry(), string(alg), dx.Comm.Rank())
}

// InstrumentedBuilder wraps a Builder so every Fock build emits a
// fock.build span (named by variant, on the rank's pid lane) and records
// the rank's load share — tasks drawn, quartets computed, wall time —
// with the session's imbalance collector. A nil session returns b
// unchanged.
func InstrumentedBuilder(b Builder, tel *telemetry.Session, variant string, rank int) Builder {
	if tel == nil {
		return b
	}
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		end := tel.Span("fock.build", variant, rank, 0, nil)
		t0 := time.Now()
		g, stats := b(d)
		wall := time.Since(t0)
		end()
		tel.RecordLoad(variant, rank, telemetry.RankLoad{
			Tasks:    stats.DLBGrabs,
			Quartets: stats.QuartetsComputed,
			Wall:     wall,
		})
		return g, stats
	}
}
