package sparse

import (
	"fmt"
	"sort"
)

// RCM computes a reverse Cuthill-McKee ordering of a square matrix,
// returning a permutation p where p[old] = new. Applying it to both rows
// and columns (m.Permute(p, p)) concentrates the nonzeros near the
// diagonal, which shrinks the matrix bandwidth and improves x-vector
// cache reuse during SpMV — the reordering/locality trade-off the
// paper's related-work section discusses (Langguth et al.; sliced-ELL
// row sorting).
//
// The ordering is computed on the symmetrised pattern of the matrix
// (an edge exists if either A[i][j] or A[j][i] is stored). Disconnected
// components are each started from a minimum-degree vertex, so the
// permutation always covers every row.
func RCM(m *CSR) ([]int, error) {
	rows, cols := m.Dims()
	if rows != cols {
		return nil, fmt.Errorf("sparse: RCM requires a square matrix, got %dx%d", rows, cols)
	}
	n := rows
	adj := symmetricAdjacency(m)

	degree := make([]int, n)
	for i := range adj {
		degree[i] = len(adj[i])
	}

	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)

	// Vertices sorted by degree: component starts pick the smallest
	// unvisited degree, the classical Cuthill-McKee heuristic.
	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.Slice(byDegree, func(a, b int) bool {
		if degree[byDegree[a]] != degree[byDegree[b]] {
			return degree[byDegree[a]] < degree[byDegree[b]]
		}
		return byDegree[a] < byDegree[b]
	})

	for _, start := range byDegree {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			nbrs := make([]int, 0, len(adj[v]))
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					nbrs = append(nbrs, int(u))
				}
			}
			sort.Slice(nbrs, func(a, b int) bool {
				if degree[nbrs[a]] != degree[nbrs[b]] {
					return degree[nbrs[a]] < degree[nbrs[b]]
				}
				return nbrs[a] < nbrs[b]
			})
			queue = append(queue, nbrs...)
		}
	}

	// Reverse (the R in RCM) and invert into old->new form.
	perm := make([]int, n)
	for pos, v := range order {
		perm[v] = n - 1 - pos
	}
	return perm, nil
}

// symmetricAdjacency builds the undirected adjacency lists of the
// matrix pattern (self-loops dropped).
func symmetricAdjacency(m *CSR) [][]int32 {
	n := m.rows
	adj := make([][]int32, n)
	add := func(a, b int32) {
		adj[a] = append(adj[a], b)
	}
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			if int(j) == i {
				continue
			}
			add(int32(i), j)
			add(j, int32(i))
		}
	}
	// Dedupe each list.
	for i := range adj {
		l := adj[i]
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		out := l[:0]
		for k, v := range l {
			if k == 0 || v != l[k-1] {
				out = append(out, v)
			}
		}
		adj[i] = out
	}
	return adj
}

// Bandwidth returns the matrix bandwidth: the maximum |i - j| over the
// stored entries (0 for diagonal or empty matrices).
func Bandwidth(m *CSR) int {
	rows, _ := m.Dims()
	bw := 0
	for i := 0; i < rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d := int(m.colIdx[k]) - i
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
