package serve

import (
	"math/rand"

	"repro/internal/sparse"
)

// Exports for the external serve_test package. Its proxied parity test
// imports internal/proxy, which imports this package, so it cannot live
// in package serve; it reuses the parity generator, the reference
// pipeline and the artifact fixtures through these names.

// ReferenceAnswer is the plain pipeline answers are checked against.
var ReferenceAnswer = referenceAnswer

// ParityBodies is the randomized MatrixMarket body generator.
type ParityBodies = parityBodies

// NewParityBodies seeds a generator over corpus.
func NewParityBodies(seed int64, corpus []*sparse.CSR) *ParityBodies {
	return &parityBodies{rng: rand.New(rand.NewSource(seed)), corpus: corpus}
}

// Body returns the next randomized valid body.
func (g *parityBodies) Body() []byte { return g.body() }

// Malformed returns a byte-unique body every parser rejects.
func (g *parityBodies) Malformed() []byte { return g.malformed() }

// The artifact fixtures and the prediction endpoints' answers.
var (
	LabelledCorpus  = labelledCorpus
	CascadeArtifact = cascadeArtifact
	TrainArtifact   = trainArtifact
)

type (
	PredictResponse = predictResponse
	BatchResponse   = batchResponse
)
