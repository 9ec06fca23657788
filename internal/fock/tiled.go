package fock

import (
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
)

// TiledBuild is the distributed-data Fock build: Algorithm 1's dynamic
// ij-pair distribution, but with NO replicated matrices. The density is
// read through a bounded TileReader over a distributed D and
// contributions are write-combined into a distributed F through a
// TileAccum; the per-rank working set is O(cache capacity) tiles instead
// of O(N^2), which is what lets systems past the MCDRAM wall run at all.
//
// The caller must Zero the matrix under f before the build and run
// distmat.UnfoldLower on it afterwards (contributions land in the lower
// triangle only, like every builder in this package). The closing
// barrier orders the final accumulator flush of every rank before any
// rank's unfold reads the tiles.
//
// The build distributes over MPI ranks only (no OpenMP team): the
// hybrid threading of Algorithms 2-3 assumes a node-shared density and
// Fock, which is exactly the replication this path removes.
func TiledBuild(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	d *distmat.TileReader, f *distmat.TileAccum, cfg Config) Stats {
	p := newPlan(eng, sch, cfg, gTarget(density{tile: d}))
	w := p.worker([]sink{func(_, x, y int, v float64) { f.AddLower(x, y, v) }})
	// No replicated accumulator exists here, so the per-pair SDC hook
	// covers the staged tile path through its ERI input buffer.
	w.dlbPairs(dx, &w.buf)
	f.Flush()
	dx.Comm.Barrier()
	return w.stats
}
