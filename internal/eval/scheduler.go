// The parallel experiment scheduler. The cross-validated grids behind
// Tables 4-7 are embarrassingly parallel: every (architecture x model x
// NC x fold) evaluation depends only on the immutable Env and on seeds
// derived from opt.Seed, never on a sibling cell. Each table therefore
// enumerates its independent cells as explicit job values in canonical
// (render) order, fans them out over a bounded obs-instrumented worker
// pool, and reduces the results back positionally.
//
// Determinism: cells write results only into their own index of a
// pre-sized slice, per-fold seeds are opt.Seed + fold exactly as in the
// sequential code, and the reduction walks cells in the enumeration
// order, so the rendered tables are byte-identical whatever the worker
// count or goroutine interleaving ("-workers 8" equals "-workers 1"
// equals the pre-scheduler sequential output; TestTablesDeterministic
// holds this). On failure the scheduler cancels the remaining cells and
// reports the lowest-indexed completed failure, which again does not
// depend on the interleaving for deterministic cell errors.
package eval

import (
	"context"

	"repro/internal/obs"
)

// runCells runs the n independent cells of one table's grid on the
// scheduler. Each cell must confine its writes to its own result slot;
// runCells provides the fan-out, bounded workers (the global obs budget:
// GOMAXPROCS, or the -workers cap installed via obs.SetMaxWorkers), obs
// span + metrics, context cancellation and first-error propagation.
func runCells(ctx context.Context, table string, n int, cell func(ctx context.Context, i int) error) error {
	workers := min(obs.MaxWorkers(), n)
	ctx, span := obs.Start(ctx, "sched/"+table)
	defer span.End()
	span.SetMetric("cells", float64(n))
	span.SetMetric("workers", float64(workers))
	return obs.ParallelForErr(ctx, n, workers, cell)
}
