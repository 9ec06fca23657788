package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/scf"
)

// Instrumentation that lives entirely outside the program: everything
// here wraps a public interface or function value of the SCF stack.

// countingSource wraps an integrals.QuartetSource (passed to the Fock
// builders as fock.Config.Quartets). It counts every shell quartet the
// builders evaluate — across all ranks and threads sharing it — and
// sums the thread time spent inside the kernel.
type countingSource struct {
	src     integrals.QuartetSource
	calls   atomic.Int64
	kernelT atomic.Int64 // nanoseconds, summed over threads
}

func (c *countingSource) ShellQuartet(i, j, k, l int, out []float64) []float64 {
	t0 := time.Now()
	out = c.src.ShellQuartet(i, j, k, l, out)
	c.kernelT.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	return out
}

// buildRecord is one Fock build seen by timedBuilder.
type buildRecord struct {
	start, end time.Time
	eriNS      int64 // kernel thread time spent inside this build
	stats      fock.Stats
}

// buildLog collects the builds of one rank's SCF.
type buildLog struct {
	mu     sync.Mutex
	builds []buildRecord
}

func (l *buildLog) snapshot() []buildRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]buildRecord(nil), l.builds...)
}

// timedBuilder decorates an scf.Builder, recording each build's wall
// span, its fock.Stats and the ERI thread time the counting source saw
// during it. With one rank per source the ERI delta is exact; with
// several ranks sharing a source it is the world's ERI time in that
// window.
func timedBuilder(b scf.Builder, src *countingSource, log *buildLog) scf.Builder {
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		e0 := src.kernelT.Load()
		t0 := time.Now()
		g, st := b(d)
		rec := buildRecord{start: t0, end: time.Now(), eriNS: src.kernelT.Load() - e0, stats: st}
		log.mu.Lock()
		log.builds = append(log.builds, rec)
		log.mu.Unlock()
		return g, st
	}
}

// iterClock records scf.Options.OnIteration timestamps.
type iterClock struct {
	mu    sync.Mutex
	stamp []time.Time
}

func (c *iterClock) hook(_ int, _ *scf.Result) {
	c.mu.Lock()
	c.stamp = append(c.stamp, time.Now())
	c.mu.Unlock()
}
