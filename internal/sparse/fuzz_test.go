package sparse

import (
	"strings"
	"testing"
)

// FuzzReadMatrixMarket checks the parser's safety contract on arbitrary
// input: it either rejects the stream with an error or produces a matrix
// that passes structural validation and survives a write/read round
// trip. `go test` exercises the seed corpus; `go test -fuzz=Fuzz` keeps
// exploring.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1\n3 1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4\n",
		"%%MatrixMarket matrix coordinate real general\n% comment\n1 1 1\n1 1 1e300\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 2 2\n2 2 -1\n",
		"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 3 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1\n1 1 -1\n",
		"%%MatrixMarket matrix array real general\n1 1\n1\n",
		"garbage\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 4 extra\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 4611686018427387903\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5\n",
		"%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n1 2 8\r\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0.49671415301123271\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p-2\n",
		// WriteMatrixMarket's own shape, in order and then out of order
		// on its last line, so mutations start from scanCanonical's input.
		"%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 0.49671415301123271\n1 3 -0.13826430117118466\n2 2 6.4768853810069628e-05\n3 1 1.5230298564080254\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 0.49671415301123271\n2 2 -0.13826430117118466\n3 1 1.5230298564080254e+20\n1 2 -0.23415337472333597\n",
	}
	// Size lines at the dimension bound, one past it, and far past it.
	seeds = append(seeds, sizeLineBody(maxDim, 1, 0), sizeLineBody(1, maxDim, 0),
		sizeLineBody(maxDim+1, 1, 0), sizeLineBody(1, maxDim+1, 0),
		sizeLineBody(maxDim+2, 1, maxDim+1), sizeLineBody(1, maxDim+2, maxDim+1))
	seeds = append(seeds, oversizedBodies...)
	seeds = append(seeds, unheldBodies...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadMatrixMarket(strings.NewReader(data))
		// The byte fast path must reach the same verdict as the
		// streaming reader on every input — and the same matrix, bit
		// for bit, on acceptance.
		fm, ferr := ReadMatrixMarketBytes([]byte(data))
		if (err == nil) != (ferr == nil) {
			t.Fatalf("parser verdicts disagree:\n  streaming: %v\n  bytes:     %v", err, ferr)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if !csrIdentical(m, fm) {
			t.Fatal("bytes parser produced a different matrix than the streaming parser")
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser produced an invalid matrix: %v", err)
		}
		var sb strings.Builder
		if err := WriteMatrixMarket(&sb, m); err != nil {
			t.Fatalf("cannot re-serialise parsed matrix: %v", err)
		}
		again, err := ReadMatrixMarket(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("cannot re-parse serialised matrix: %v", err)
		}
		if !Equal(m, again) {
			t.Fatal("write/read round trip changed the matrix")
		}
	})
}
