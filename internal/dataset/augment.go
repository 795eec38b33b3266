package dataset

import "math/rand"

// drawPerms draws one variant's row and column permutations, in that
// order. Augmentation derives variants of a base matrix by windowed row
// and column permutations, the strategy the paper borrows from the
// CNN-based prior work (Zhao et al., Pichel et al.). Permutations are
// windowed rather than global so the variants keep the coarse structure
// (bandedness, blocks) that determines their best format, while the fine
// layout — and therefore the exact feature values such as csr_max and
// the scatter — changes. drawPerms is the only rng use of augmentation,
// so Generate can draw on one goroutine and permute on others.
func drawPerms(rng *rand.Rand, rows, cols int) (rowPerm, colPerm []int) {
	rowPerm = windowedPerm(rng, rows, 1+rows/8)
	colPerm = windowedPerm(rng, cols, 1+cols/8)
	return rowPerm, colPerm
}

// windowedPerm builds a permutation of [0, n) that shuffles indices only
// within consecutive windows of the given size, bounding how far any
// entry can move.
func windowedPerm(rng *rand.Rand, n, window int) []int {
	if window < 2 {
		window = 2
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for base := 0; base < n; base += window {
		hi := base + window
		if hi > n {
			hi = n
		}
		// Fisher-Yates within the window.
		for i := hi - 1; i > base; i-- {
			j := base + rng.Intn(i-base+1)
			p[i], p[j] = p[j], p[i]
		}
	}
	return p
}
