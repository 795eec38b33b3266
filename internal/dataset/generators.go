// Package dataset builds the synthetic sparse-matrix collection that
// substitutes for the SuiteSparse Matrix Collection, and assembles the
// labelled per-architecture benchmark datasets the learning experiments
// consume.
//
// The generator families are chosen to span the structural regimes found
// in SuiteSparse — uniformly random graphs, scale-free (power-law)
// graphs, banded PDE matrices, stencil meshes, block-structured systems
// and heavy-tailed hybrids — so that the extracted features exhibit the
// same wide dynamic ranges and power-law distributions that motivate the
// paper's logarithmic feature transforms. Everything is deterministic in
// the configured seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
)

// Family identifies a generator family.
type Family int

// Generator families. See the gen* functions for each family's structure.
const (
	FamilyUniform Family = iota
	FamilyPowerLaw
	FamilyBanded
	FamilyMesh
	FamilyBlock
	FamilyRMAT
	FamilyHeavyRow
	FamilyStencil3D
	FamilyCircuit
	FamilyBipartite
	numFamilies
)

// String returns the family name used in matrix identifiers.
func (f Family) String() string {
	switch f {
	case FamilyUniform:
		return "uniform"
	case FamilyPowerLaw:
		return "powerlaw"
	case FamilyBanded:
		return "banded"
	case FamilyMesh:
		return "mesh"
	case FamilyBlock:
		return "block"
	case FamilyRMAT:
		return "rmat"
	case FamilyHeavyRow:
		return "heavyrow"
	case FamilyStencil3D:
		return "stencil3d"
	case FamilyCircuit:
		return "circuit"
	case FamilyBipartite:
		return "bipartite"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Generate produces one matrix of the family. The scale parameter in
// (0, 1] controls the size: rows grow roughly geometrically with scale.
func (f Family) Generate(rng *rand.Rand, scale float64) *sparse.CSR {
	return f.generate(rng, scale, new(assembler))
}

// assembler builds matrices one after another through one Triplet and
// one ParseScratch, so their buffers are allocated once per collection
// rather than once per matrix. It must not be shared concurrently.
type assembler struct {
	t sparse.Triplet
	s sparse.ParseScratch
}

// start empties the triplet for a rows x cols matrix and returns it.
func (a *assembler) start(rows, cols int) *sparse.Triplet {
	a.t.Reset(rows, cols)
	return &a.t
}

// finish assembles the triplet's entries into a CSR matrix that owns
// its memory.
func (a *assembler) finish() *sparse.CSR { return a.t.ToCSRScratch(&a.s) }

func (f Family) generate(rng *rand.Rand, scale float64, asm *assembler) *sparse.CSR {
	// Log-uniform row count between ~200 and ~40000.
	rows := int(200 * math.Pow(200, scale*rng.Float64()))
	if rows < 8 {
		rows = 8
	}
	switch f {
	case FamilyUniform:
		return genUniform(rng, rows, asm)
	case FamilyPowerLaw:
		return genPowerLaw(rng, rows, asm)
	case FamilyBanded:
		return genBanded(rng, rows, asm)
	case FamilyMesh:
		return genMesh(rng, rows, asm)
	case FamilyBlock:
		return genBlock(rng, rows, asm)
	case FamilyRMAT:
		return genRMAT(rng, rows, asm)
	case FamilyHeavyRow:
		return genHeavyRow(rng, rows, asm)
	case FamilyStencil3D:
		return genStencil3D(rng, rows, asm)
	case FamilyCircuit:
		return genCircuit(rng, rows, asm)
	case FamilyBipartite:
		return genBipartite(rng, rows, asm)
	default:
		panic(fmt.Sprintf("dataset: unknown family %d", int(f)))
	}
}

// addRowEntries inserts n distinct random columns into row i.
func addRowEntries(rng *rand.Rand, t *sparse.Triplet, i, cols, n int) {
	if n > cols {
		n = cols
	}
	if n <= 0 {
		return
	}
	if n*4 >= cols {
		// Dense-ish row: sample without replacement via partial shuffle.
		perm := rng.Perm(cols)[:n]
		for _, j := range perm {
			mustAdd(t, i, j, 1+rng.Float64())
		}
		return
	}
	// Sparse row: sample with replacement; the rare collision is summed
	// by the Triplet and costs one nonzero, which is immaterial here.
	for k := 0; k < n; k++ {
		mustAdd(t, i, rng.Intn(cols), 1+rng.Float64())
	}
}

// mustAdd panics on a Triplet.Add failure; generators only produce
// in-range coordinates, so a failure is a bug rather than a data error.
func mustAdd(t *sparse.Triplet, i, j int, v float64) {
	if err := t.Add(i, j, v); err != nil {
		panic(fmt.Sprintf("dataset: generator produced bad coordinate: %v", err))
	}
}

// genUniform is an Erdős–Rényi-style matrix: every row draws a
// near-Poisson number of uniformly random columns. Moderate imbalance
// and full scatter; the regime where CSR usually wins.
func genUniform(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows
	expNeg := math.Exp(-(3 + rng.Float64()*25))
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		addRowEntries(rng, t, i, cols, poisson(rng, expNeg))
	}
	return asm.finish()
}

// genPowerLaw draws row lengths from a discrete Pareto distribution,
// producing the scale-free degree profiles of web and social graphs:
// a few enormous rows, many tiny ones. The regime where scalar CSR
// collapses and HYB or COO wins.
func genPowerLaw(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows
	alpha := 1.6 + rng.Float64()*1.2 // tail exponent
	maxLen := cols / 2
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		n := int(math.Pow(rng.Float64(), -1/alpha)) // Pareto(alpha), min 1
		if n > maxLen {
			n = maxLen
		}
		addRowEntries(rng, t, i, cols, n)
	}
	return asm.finish()
}

// genBanded scatters entries inside a diagonal band, the profile of 1-D
// PDE discretisations: near-uniform rows and excellent column locality.
// The regime where ELL wins.
func genBanded(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows
	band := 2 + rng.Intn(30)
	fill := 0.15 + 0.8*rng.Float64()
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		lo := i - band
		if lo < 0 {
			lo = 0
		}
		hi := i + band
		if hi >= cols {
			hi = cols - 1
		}
		mustAdd(t, i, i, 2+rng.Float64())
		for j := lo; j <= hi; j++ {
			if j != i && rng.Float64() < fill {
				mustAdd(t, i, j, rng.Float64())
			}
		}
	}
	return asm.finish()
}

// genMesh is the 5-point (or 9-point) stencil of a 2-D structured grid:
// constant-length rows, perfect for ELL.
func genMesh(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	side := int(math.Sqrt(float64(rows)))
	if side < 3 {
		side = 3
	}
	n := side * side
	nine := rng.Intn(2) == 1
	t := asm.start(n, n)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			i := x*side + y
			mustAdd(t, i, i, 4+rng.Float64())
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx >= 0 && nx < side && ny >= 0 && ny < side {
					mustAdd(t, i, nx*side+ny, -1)
				}
			}
			if nine {
				for _, d := range [][2]int{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
					nx, ny := x+d[0], y+d[1]
					if nx >= 0 && nx < side && ny >= 0 && ny < side {
						mustAdd(t, i, nx*side+ny, -0.5)
					}
				}
			}
		}
	}
	return asm.finish()
}

// genBlock builds a block-diagonal matrix with dense blocks plus sparse
// coupling entries, the profile of multi-physics systems: uniform rows
// within blocks, mild scatter.
func genBlock(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	bs := 4 + rng.Intn(12) // block size
	nb := rows / bs
	if nb < 1 {
		nb = 1
	}
	n := nb * bs
	t := asm.start(n, n)
	for b := 0; b < nb; b++ {
		base := b * bs
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				if i == j || rng.Float64() < 0.7 {
					mustAdd(t, base+i, base+j, 1+rng.Float64())
				}
			}
		}
	}
	// Sparse off-block coupling.
	couplings := n / 4
	for k := 0; k < couplings; k++ {
		mustAdd(t, rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	return asm.finish()
}

// genRMAT is a recursive-matrix (Kronecker) graph in the style of
// Chakrabarti et al.: skewed degrees and community structure. The regime
// where CSR, HYB and COO compete.
func genRMAT(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	levels := int(math.Ceil(math.Log2(float64(rows))))
	n := 1 << levels
	edges := n * (4 + rng.Intn(12))
	a, ab, abc := rmatThresholds()
	t := asm.start(n, n)
	for e := 0; e < edges; e++ {
		i, j := 0, 0
		for l := 0; l < levels; l++ {
			di, dj := rmatLevel(rng.Float64(), a, ab, abc)
			i |= di << l
			j |= dj << l
		}
		mustAdd(t, i, j, 1)
	}
	return asm.finish()
}

// rmatThresholds returns the cumulative RMAT corner thresholds a, a+b
// and a+b+c for the standard corner probabilities a = 0.57 (top-left),
// b = 0.19 (top-right) and c = 0.19 (bottom-left), summed in float64
// from the left, so a draw on a threshold picks the corner it always
// picked.
func rmatThresholds() (a, ab, abc float64) {
	a, b, c := 0.57, 0.19, 0.19
	return a, a + b, a + b + c
}

// rmatLevel returns the row and column bits one RMAT level adds for the
// uniform draw r: none below a, the column's below a+b, the row's below
// a+b+c, and both from there up. It compares instead of branching on a
// fresh random draw, which a predictor misses about half the time.
func rmatLevel(r, a, ab, abc float64) (i, j int) {
	i = b2i(r >= ab)
	return i, b2i(r >= a) ^ i ^ b2i(r >= abc)
}

// b2i is 1 for true and 0 for false; the compiler emits it as a flag
// set, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// genHeavyRow is a mostly-uniform matrix with a handful of near-dense
// rows, the shape of bipartite incidence data (and of the paper's
// mawi example): catastrophic for scalar CSR, ideal for HYB.
func genHeavyRow(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows
	if rng.Float64() < 0.08 {
		// Occasional wide "spike" matrix in the spirit of the paper's
		// mawi example: a short-and-wide incidence structure whose one
		// near-dense row is most of the matrix, the worst case for the
		// scalar CSR kernel.
		cols = rows * 8
	}
	expNeg := math.Exp(-(2 + rng.Float64()*8))
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		addRowEntries(rng, t, i, cols, poisson(rng, expNeg))
	}
	heavy := 1 + rng.Intn(4)
	for h := 0; h < heavy; h++ {
		i := rng.Intn(rows)
		// Squaring the uniform draw skews spikes mild: many matrices get
		// modest heavy rows (which stay CSR-friendly), a few get
		// monsters.
		u := rng.Float64()
		n := int(float64(cols) * (0.03 + 0.6*u*u))
		addRowEntries(rng, t, i, cols, n)
	}
	return asm.finish()
}

// poisson draws a Poisson variate by inversion, given expNeg =
// exp(-mean). The generators draw one variate per row with one mean per
// matrix, so each computes exp(-mean) once. Their means stay below 30,
// where inversion takes about mean+1 uniform draws.
func poisson(rng *rand.Rand, expNeg float64) int {
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= expNeg {
			return k
		}
		k++
	}
}

// genStencil3D is the 7-point stencil of a 3-D structured grid, the
// profile of finite-difference volume solvers: constant-length interior
// rows (ideal for ELL) but with three distinct diagonal distances, so
// its locality differs from the 2-D mesh.
func genStencil3D(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	side := int(math.Cbrt(float64(rows)))
	if side < 3 {
		side = 3
	}
	n := side * side * side
	t := asm.start(n, n)
	at := func(x, y, z int) int { return (x*side+y)*side + z }
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				i := at(x, y, z)
				mustAdd(t, i, i, 6+rng.Float64())
				for _, d := range [][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
					nx, ny, nz := x+d[0], y+d[1], z+d[2]
					if nx >= 0 && nx < side && ny >= 0 && ny < side && nz >= 0 && nz < side {
						mustAdd(t, i, at(nx, ny, nz), -1)
					}
				}
			}
		}
	}
	return asm.finish()
}

// genCircuit mimics circuit-simulation matrices: very sparse rows
// (2-4 entries, local neighbours) plus a few dense rows AND columns from
// power/ground nets touching a large share of the nodes. The dense
// columns scatter the x-vector access pattern without inflating any
// single row, a regime none of the other families covers.
func genCircuit(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		mustAdd(t, i, i, 4+rng.Float64())
		deg := 1 + rng.Intn(3)
		for e := 0; e < deg; e++ {
			// Mostly local wiring with occasional long connections.
			off := 1 + rng.Intn(16)
			if rng.Float64() < 0.1 {
				off = rng.Intn(cols)
			}
			j := (i + off) % cols
			if j != i {
				mustAdd(t, i, j, -rng.Float64())
			}
		}
	}
	// Power/ground nets: a handful of near-dense columns (and their
	// transposed rows).
	nets := 1 + rng.Intn(3)
	for k := 0; k < nets; k++ {
		net := rng.Intn(cols)
		fan := rows / 8
		for e := 0; e < fan; e++ {
			i := rng.Intn(rows)
			if i != net {
				mustAdd(t, i, net, rng.Float64())
				mustAdd(t, net, i, rng.Float64())
			}
		}
	}
	return asm.finish()
}

// genBipartite is a rectangular term-document-style incidence matrix:
// many more columns than rows (or vice versa), Zipf-ish column
// popularity, uniform row lengths. Rectangularity exercises the
// nrows/ncols features no square family touches.
func genBipartite(rng *rand.Rand, rows int, asm *assembler) *sparse.CSR {
	cols := rows * (2 + rng.Intn(6))
	if rng.Intn(2) == 0 {
		rows, cols = cols, rows/2+1
	}
	expNeg := math.Exp(-(4 + rng.Float64()*12))
	t := asm.start(rows, cols)
	for i := 0; i < rows; i++ {
		n := poisson(rng, expNeg)
		for e := 0; e < n; e++ {
			// Zipf-ish column popularity via squaring.
			u := rng.Float64()
			j := int(u * u * float64(cols))
			if j >= cols {
				j = cols - 1
			}
			mustAdd(t, i, j, 1)
		}
	}
	return asm.finish()
}
