package sparse

import (
	"time"

	"repro/internal/obs"
)

// Kernel instrumentation. Every SpMV kernel brackets its inner loops
// with
//
//	start := obs.Now()          // zero time when obs is disabled
//	...kernel...
//	observeKernel(f, rows, nnz, start)
//
// so the disabled cost is one atomic load per call. When a sink is
// registered, each call feeds the per-format metrics
//
//	spmv/<FMT>/calls       counter
//	spmv/<FMT>/rows_per_s  histogram, row throughput
//	spmv/<FMT>/nnz_per_s   histogram, nonzero throughput (≈ 2·FLOP/s / 2)
//	spmv/<FMT>/nnz         histogram, problem size per call
//
// The throughput histograms are the CPU-side analogue of the paper's GPU
// kernel timings: the run-report commits them as a host fingerprint so
// reports from different machines are comparable.
type kernelInstr struct {
	calls  *obs.Counter
	rowsPS *obs.Histogram
	nnzPS  *obs.Histogram
	nnz    *obs.Histogram
}

// kernelInstrs is indexed by Format; instruments are resolved once at
// init so the enabled path never touches the registry's map lock.
var kernelInstrs = func() []kernelInstr {
	formats := []Format{FormatCOO, FormatCSR, FormatELL, FormatHYB, FormatSELL}
	ki := make([]kernelInstr, len(formats))
	for _, f := range formats {
		name := "spmv/" + f.String()
		ki[f] = kernelInstr{
			calls:  obs.Default.Counter(name + "/calls"),
			rowsPS: obs.Default.Histogram(name+"/rows_per_s", obs.RateBuckets),
			nnzPS:  obs.Default.Histogram(name+"/nnz_per_s", obs.RateBuckets),
			nnz:    obs.Default.Histogram(name+"/nnz", obs.SizeBuckets),
		}
	}
	return ki
}()

// observeKernel records one kernel execution. A zero start time means
// observability was disabled when the kernel began; nothing is recorded.
func observeKernel(f Format, rows, nnz int, start time.Time) {
	if start.IsZero() {
		return
	}
	secs := time.Since(start).Seconds()
	ki := &kernelInstrs[f]
	ki.calls.Inc()
	ki.nnz.Observe(float64(nnz))
	if secs > 0 {
		ki.rowsPS.Observe(float64(rows) / secs)
		ki.nnzPS.Observe(float64(nnz) / secs)
	}
}
