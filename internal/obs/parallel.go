package obs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared bounded-parallel helpers. Before this package existed the
// repository carried four near-identical worker pools (meanshift.go,
// collection.go, and the inline pools in csr.go and kmeans.go); they all
// route through here now, which also gives the metrics registry a live
// view of parallel activity:
//
//	parallel/regions  counter  parallel sections entered
//	parallel/workers  gauge    currently active workers across sections
var (
	parallelRegions = Default.Counter("parallel/regions")
	parallelWorkers = Default.Gauge("parallel/workers")
)

// maxWorkers caps the worker count of every helper in this file; 0 means
// "no cap beyond GOMAXPROCS". cmd/spmvselect's -workers flag sets it so
// that -workers 1 yields a genuinely sequential run all the way down the
// stack (scheduler cells, K-Means assignment, feature extraction, forest
// training), which is the baseline the parallel speedup is measured
// against.
var maxWorkers atomic.Int32

// SetMaxWorkers caps the parallelism of every obs helper at n workers;
// n <= 0 removes the cap (GOMAXPROCS applies). It returns the previous
// cap so callers can restore it.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int32(n)))
}

// MaxWorkers returns the current global worker budget: the SetMaxWorkers
// cap when one is set, GOMAXPROCS otherwise.
func MaxWorkers() int {
	if c := int(maxWorkers.Load()); c > 0 {
		return c
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the worker count a parallel helper would use for n
// items: min(MaxWorkers, n), at least 1.
func Workers(n int) int {
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// enterRegion records a region start and returns the matching leave
// function (both no-ops when disabled).
func enterRegion(workers int) func() {
	if !Enabled() {
		return nil
	}
	parallelRegions.Inc()
	parallelWorkers.Add(float64(workers))
	return func() { parallelWorkers.Add(-float64(workers)) }
}

// dispatchBatch sizes the index batches handed to workers: small enough
// that uneven items still balance (each worker gets ~batchesPerWorker
// grabs), large enough that the shared atomic counter is touched rarely.
const batchesPerWorker = 8

func dispatchBatch(n, workers int) int {
	b := n / (workers * batchesPerWorker)
	if b < 1 {
		b = 1
	}
	return b
}

// ParallelFor runs fn(i) for every i in [0, n), distributing iterations
// dynamically over Workers(n) goroutines. Work is handed out as index
// batches claimed from a shared atomic counter, so the per-item dispatch
// cost is a fraction of an atomic add (see BenchmarkParallelForDispatch)
// rather than the ~100ns channel hand-off this helper used before; items
// doing even sub-microsecond work parallelise profitably.
func ParallelFor(n int, fn func(i int)) {
	workers := Workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	leave := enterRegion(workers)
	batch := dispatchBatch(n, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
	if leave != nil {
		leave()
	}
}

// ParallelForErr runs fn(ctx, i) for every i in [0, n) on up to workers
// goroutines (workers <= 0 selects Workers(n); the SetMaxWorkers cap
// always applies). It is the primitive behind the experiment scheduler
// and forest training: jobs are claimed one at a time from a shared
// counter, the derived context is cancelled on the first failure so
// in-flight jobs can bail early, and no new jobs start after a failure
// or outer cancellation.
//
// The returned error is the failure with the lowest job index among the
// jobs that ran, so a run where job i deterministically fails reports
// job i's error regardless of worker count or interleaving. When the
// outer ctx is cancelled first, ctx.Err() is returned.
func ParallelForErr(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(n)
	if workers > 0 && workers < w {
		w = workers
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := cctx.Err(); err != nil {
				return err
			}
			if err := fn(cctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	leave := enterRegion(w)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check before claiming: a claimed job always runs, so every
				// job below a failed one has run and the lowest failure wins.
				if cctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(cctx, i); err != nil {
					mu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if leave != nil {
		leave()
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// ParallelWorkers runs fn(w) once per worker w in [0, workers)
// concurrently and waits for all of them. It is the primitive for pools
// that precompute their own per-worker partition (e.g. CSR's
// nnz-balanced row chunks).
func ParallelWorkers(workers int, fn func(w int)) {
	if workers <= 1 {
		if workers == 1 {
			fn(0)
		}
		return
	}
	leave := enterRegion(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
	if leave != nil {
		leave()
	}
}

// ParallelChunks splits [0, n) into contiguous chunks, one per worker,
// and runs fn(w, lo, hi) concurrently. Use Workers(n) for the worker
// count when sizing per-worker scratch space.
func ParallelChunks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	ParallelWorkers(workers, func(w int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo < hi {
			fn(w, lo, hi)
		}
	})
}
