package dataset

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Item is one named matrix of the collection.
type Item struct {
	// Name identifies the matrix: family, sequence number and variant.
	Name string
	// Matrix is the canonical CSR form.
	Matrix *sparse.CSR
}

// Config controls collection generation.
type Config struct {
	// Seed makes the collection reproducible.
	Seed int64
	// BaseCount is the number of base matrices drawn round-robin from
	// the generator families.
	BaseCount int
	// AugmentPerBase is the number of permuted variants derived from
	// each base matrix (the paper's augmented dataset); 0 disables
	// augmentation.
	AugmentPerBase int
	// Scale in (0, 1] controls matrix sizes; 1 spans the full range of
	// roughly 200-40000 rows. Smaller values keep the collection small
	// for tests.
	Scale float64
	// DropELLFailures removes matrices whose ELL conversion exceeds
	// ELLLimit, as the paper does for matrices where CUSP failed to
	// generate the ELL variant.
	DropELLFailures bool
	// ELLLimit is the slab-to-nnz ratio above which ELL conversion is
	// deemed failed; 0 selects a permissive default that keeps the
	// heavy-tailed matrices (whose ELL kernels are slow but valid) in
	// the collection, as SuiteSparse's mawi matrices are in the paper's.
	ELLLimit int
}

// defaultDatasetELLLimit keeps heavy-tailed matrices in the collection;
// only truly degenerate slabs are dropped.
const defaultDatasetELLLimit = 4096

// DefaultConfig is the configuration used by the paper-scale experiments:
// with augmentation it yields a collection of the same order as the
// paper's 1929 SuiteSparse matrices plus permuted variants.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		BaseCount:       640,
		AugmentPerBase:  2,
		Scale:           0.75,
		DropELLFailures: true,
	}
}

// Generate builds the collection: BaseCount base matrices cycled through
// the generator families plus AugmentPerBase permuted variants of each.
//
// One goroutine makes every rng draw in a fixed order — each base
// matrix, its ELL retries, then each variant's permutations — and
// assembles the base matrices, since the ELL check needs their row
// lengths. The permutations draw nothing, so that goroutine queues them
// to the other obs.MaxWorkers()-1 workers, and runs one itself when the
// queue is full. Every item has a slot fixed before the loop, so the
// collection is the same at any worker count.
func Generate(cfg Config) ([]Item, error) {
	if cfg.BaseCount <= 0 {
		return nil, fmt.Errorf("dataset: BaseCount must be positive, got %d", cfg.BaseCount)
	}
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("dataset: Scale must be in (0, 1], got %v", cfg.Scale)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	limit := cfg.ELLLimit
	if limit <= 0 {
		limit = defaultDatasetELLLimit
	}
	per := 1 + max(cfg.AugmentPerBase, 0)
	items := make([]Item, cfg.BaseCount*per)
	errs := make([]error, len(items))
	type permJob struct {
		slot   int
		name   string
		m      *sparse.CSR
		rp, cp []int
	}
	permute := func(j permJob) {
		p, err := j.m.Permute(j.rp, j.cp)
		items[j.slot], errs[j.slot] = Item{Name: j.name, Matrix: p}, err
	}
	workers := obs.MaxWorkers()
	jobs := make(chan permJob, permQueue*(workers-1))
	obs.ParallelWorkers(workers, func(w int) {
		if w > 0 {
			for j := range jobs {
				permute(j)
			}
			return
		}
		defer close(jobs)
		var asm assembler
		for n := 0; n < cfg.BaseCount; n++ {
			fam := Family(n % int(numFamilies))
			m := fam.generate(rng, cfg.Scale, &asm)
			if cfg.DropELLFailures {
				if !ellConvertible(m, limit) {
					// The paper omits matrices whose ELL variant cannot be
					// generated; so do we, keeping the count by retrying
					// with a fresh draw (bounded).
					ok := false
					for retry := 0; retry < 8; retry++ {
						m = fam.generate(rng, cfg.Scale, &asm)
						if ellConvertible(m, limit) {
							ok = true
							break
						}
					}
					if !ok {
						continue
					}
				}
			}
			base := fmt.Sprintf("%s_%04d", fam, n)
			items[n*per] = Item{Name: base, Matrix: m}
			rows, cols := m.Dims()
			for v := 1; v < per; v++ {
				j := permJob{slot: n*per + v, name: fmt.Sprintf("%s_p%d", base, v), m: m}
				j.rp, j.cp = drawPerms(rng, rows, cols)
				select {
				case jobs <- j:
				default:
					permute(j)
				}
			}
		}
	})
	out := items[:0]
	for i, it := range items {
		if errs[i] != nil {
			return nil, fmt.Errorf("dataset: augmenting %s: %w", it.Name, errs[i])
		}
		if it.Matrix != nil {
			out = append(out, it)
		}
	}
	return out, nil
}

// permQueue is how many permutations Generate queues per permuting
// worker before the drawing goroutine runs one itself. Base matrices
// vary in size by two orders of magnitude, so the permuting side falls
// behind in bursts. On 2 CPUs the seed-5 paper corpus generated in
// 1.22-1.79 s with depth 1, 1.21-1.38 s with 4 and 1.10-1.31 s with
// 16 (mean of three runs per process, six rotating rounds). Depth 64
// beat 16 by a few percent in 12 of 14 such rounds, but not with one
// process per run, as a table run generates: the seed-40 corpus took
// 1.13-1.33 s with 64 and 1.19-1.48 s with 16 (eight rounds, five to
// 64).
const permQueue = 16

// ellConvertible reports whether the ELL slab stays under limit*nnz
// without materialising it.
func ellConvertible(m *sparse.CSR, limit int) bool {
	rows, _ := m.Dims()
	maxRow := 0
	for i := 0; i < rows; i++ {
		if n := m.RowNNZ(i); n > maxRow {
			maxRow = n
		}
	}
	nnz := m.NNZ()
	return nnz == 0 || rows*maxRow <= limit*nnz
}

// ArchData is the labelled dataset of one architecture: the matrices
// whose four kernels all ran, with their features, simulated kernel
// times and best-format labels.
type ArchData struct {
	// Arch is the architecture the labels belong to.
	Arch gpusim.Arch
	// Index maps each row to its position in the parent Corpus.
	Index []int
	// Names are the matrix identifiers.
	Names []string
	// Feats are the raw Table 1 feature vectors (one per row).
	Feats [][]float64
	// Times are per-format kernel seconds in sparse.KernelFormats order.
	Times [][]float64
	// Labels are best-format indices into sparse.KernelFormats().
	Labels []int
}

// Len returns the number of matrices in the dataset.
func (d *ArchData) Len() int { return len(d.Labels) }

// ClassCounts returns how many matrices prefer each format, the rows of
// the paper's Table 3.
func (d *ArchData) ClassCounts() [sparse.NumKernelFormats]int {
	var c [sparse.NumKernelFormats]int
	for _, l := range d.Labels {
		c[l]++
	}
	return c
}

// Corpus couples the collection with its features, profiles and the
// per-architecture labelled datasets.
type Corpus struct {
	// Items is the full collection.
	Items []Item
	// Feats[i] is the Table 1 feature vector of Items[i].
	Feats [][]float64
	// Profiles[i] is the kernel-model profile of Items[i].
	Profiles []gpusim.Profile
	// PerArch holds one labelled dataset per architecture name.
	PerArch map[string]*ArchData
}

// Build extracts features and profiles for every item in parallel and
// simulates the benchmark on every architecture, producing the labelled
// per-architecture datasets. The ctx parents the obs spans of the two
// stages ("features", "label/<arch>"); pass context.Background() when
// not tracing.
func Build(ctx context.Context, items []Item, archs []gpusim.Arch) *Corpus {
	c := &Corpus{
		Items:    items,
		Feats:    make([][]float64, len(items)),
		Profiles: make([]gpusim.Profile, len(items)),
		PerArch:  make(map[string]*ArchData, len(archs)),
	}
	_, sp := obs.Start(ctx, "features")
	obs.ParallelChunks(len(items), obs.Workers(len(items)), func(w, lo, hi int) {
		// One reusable extraction scratch per worker.
		var s features.Scratch
		for i := lo; i < hi; i++ {
			c.Feats[i] = s.Extract(items[i].Matrix).Slice()
			c.Profiles[i] = gpusim.NewProfile(items[i].Matrix)
		}
	})
	sp.SetMetric("items", float64(len(items)))
	sp.End()
	for _, a := range archs {
		_, sp := obs.Start(ctx, "label/"+a.Name)
		d := &ArchData{Arch: a}
		for i, it := range items {
			m := a.Measure(it.Name, c.Profiles[i])
			if !m.Feasible() {
				continue
			}
			times := make([]float64, sparse.NumKernelFormats)
			copy(times, m.Times[:])
			d.Index = append(d.Index, i)
			d.Names = append(d.Names, it.Name)
			d.Feats = append(d.Feats, c.Feats[i])
			d.Times = append(d.Times, times)
			d.Labels = append(d.Labels, m.Best)
		}
		c.PerArch[a.Name] = d
		sp.SetMetric("feasible", float64(len(d.Index)))
		sp.End()
	}
	return c
}

// CommonSubset returns, for each architecture, the restriction of its
// dataset to the matrices feasible on all of them — the paper's "Common
// Subset" used by every transfer experiment. Rows are aligned: row k of
// each returned dataset refers to the same matrix.
func (c *Corpus) CommonSubset(archs []gpusim.Arch) (map[string]*ArchData, error) {
	if len(archs) == 0 {
		return nil, fmt.Errorf("dataset: CommonSubset of zero architectures")
	}
	inAll := make([]bool, len(c.Items))
	for i := range inAll {
		inAll[i] = true
	}
	for _, a := range archs {
		d, ok := c.PerArch[a.Name]
		if !ok {
			return nil, fmt.Errorf("dataset: architecture %q not in corpus", a.Name)
		}
		has := make([]bool, len(c.Items))
		for _, idx := range d.Index {
			has[idx] = true
		}
		for i := range inAll {
			inAll[i] = inAll[i] && has[i]
		}
	}
	out := make(map[string]*ArchData, len(archs))
	for _, a := range archs {
		full := c.PerArch[a.Name]
		pos := make(map[int]int, len(full.Index))
		for row, idx := range full.Index {
			pos[idx] = row
		}
		sub := &ArchData{Arch: a}
		for i := range c.Items {
			if !inAll[i] {
				continue
			}
			row := pos[i]
			sub.Index = append(sub.Index, i)
			sub.Names = append(sub.Names, full.Names[row])
			sub.Feats = append(sub.Feats, full.Feats[row])
			sub.Times = append(sub.Times, full.Times[row])
			sub.Labels = append(sub.Labels, full.Labels[row])
		}
		out[a.Name] = sub
	}
	return out, nil
}
