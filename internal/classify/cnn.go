package classify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// CNN is a small convolutional network over DensityImage encodings,
// re-implementing in miniature the CNN format classifier of Zhao et al.
// that the paper benchmarks: two conv+ReLU+maxpool stages followed by a
// softmax layer, trained with minibatch SGD and momentum.
//
// Architecture (for ImageSize 16):
//
//	input 1x16x16 -> conv 3x3 (C1 filters) -> ReLU -> maxpool 2
//	             -> conv 3x3 (C2 filters) -> ReLU -> maxpool 2
//	             -> fully connected -> softmax
//
// As in the paper, the model is markedly more expensive to train than
// the classical baselines and suffers on unbalanced training sets.
type CNN struct {
	// Epochs over the training set (default 30).
	Epochs int
	// Batch is the minibatch size (default 32).
	Batch int
	// LR is the learning rate (default 0.05).
	LR float64
	// Seed drives weight init and shuffling.
	Seed int64

	c1, c2  int       // filter counts
	conv1   []float64 // c1 x 1 x 3 x 3
	bias1   []float64
	conv2   []float64 // c2 x c1 x 3 x 3
	bias2   []float64
	fc      []float64 // classes x fcIn
	biasFC  []float64
	classes int
	fitted  bool
}

// Layer geometry for ImageSize 16 with 3x3 valid convolutions and 2x2
// pooling: 16 -> 14 -> 7 -> 5 -> 2.
const (
	cnnIn    = ImageSize    // 16
	cnnC1Out = cnnIn - 2    // 14
	cnnP1Out = cnnC1Out / 2 // 7
	cnnC2Out = cnnP1Out - 2 // 5
	cnnP2Out = cnnC2Out / 2 // 2
)

// NewCNN returns a CNN with the defaults above.
func NewCNN(seed int64) *CNN { return &CNN{Epochs: 30, Batch: 32, LR: 0.05, Seed: seed, c1: 6, c2: 12} }

// cnnState holds one sample's forward activations, reused across passes.
type cnnState struct {
	a1   []float64 // c1 x 14 x 14 post-ReLU
	p1   []float64 // c1 x 7 x 7
	arg1 []int     // argmax index within the input of each pooled cell
	a2   []float64 // c2 x 5 x 5 post-ReLU
	p2   []float64 // c2 x 2 x 2
	arg2 []int
	out  []float64 // class scores -> probabilities
}

func (m *CNN) newState() *cnnState {
	return &cnnState{
		a1:   make([]float64, m.c1*cnnC1Out*cnnC1Out),
		p1:   make([]float64, m.c1*cnnP1Out*cnnP1Out),
		arg1: make([]int, m.c1*cnnP1Out*cnnP1Out),
		a2:   make([]float64, m.c2*cnnC2Out*cnnC2Out),
		p2:   make([]float64, m.c2*cnnP2Out*cnnP2Out),
		arg2: make([]int, m.c2*cnnP2Out*cnnP2Out),
		out:  make([]float64, m.classes),
	}
}

func (m *CNN) fcIn() int { return m.c2 * cnnP2Out * cnnP2Out }

// cnnSlot is one minibatch position's scratch: the sample's forward
// activations and its backward deltas.
type cnnSlot struct {
	cnnState
	dP2 []float64 // c2 x 2 x 2
	dA2 []float64 // c2 x 5 x 5
	dP1 []float64 // c1 x 7 x 7
	dA1 []float64 // c1 x 14 x 14
}

func (m *CNN) newSlot() cnnSlot {
	st := m.newState()
	return cnnSlot{
		cnnState: *st,
		dP2:      make([]float64, len(st.p2)),
		dA2:      make([]float64, len(st.a2)),
		dP1:      make([]float64, len(st.p1)),
		dA1:      make([]float64, len(st.a1)),
	}
}

// Fit trains the network. Input rows must be DensityImage vectors of
// length ImageSize*ImageSize.
func (m *CNN) Fit(x [][]float64, y []int, classes int) error {
	if err := checkTrainingInput(x, y, classes); err != nil {
		return err
	}
	if len(x[0]) != cnnIn*cnnIn {
		return fmt.Errorf("classify: CNN expects %d-pixel images, got %d features", cnnIn*cnnIn, len(x[0]))
	}
	if m.Epochs <= 0 {
		m.Epochs = 30
	}
	if m.Batch <= 0 {
		m.Batch = 32
	}
	if m.LR <= 0 {
		m.LR = 0.05
	}
	if m.c1 == 0 {
		m.c1 = 6
	}
	if m.c2 == 0 {
		m.c2 = 12
	}
	m.classes = classes
	rng := rand.New(rand.NewSource(m.Seed))

	// He initialisation.
	initN := func(n int, fanIn float64) []float64 {
		w := make([]float64, n)
		s := math.Sqrt(2 / fanIn)
		for i := range w {
			w[i] = rng.NormFloat64() * s
		}
		return w
	}
	m.conv1 = initN(m.c1*9, 9)
	m.bias1 = make([]float64, m.c1)
	m.conv2 = initN(m.c2*m.c1*9, float64(m.c1*9))
	m.bias2 = make([]float64, m.c2)
	m.fc = initN(classes*m.fcIn(), float64(m.fcIn()))
	m.biasFC = make([]float64, classes)

	// Momentum buffers.
	vConv1 := make([]float64, len(m.conv1))
	vBias1 := make([]float64, len(m.bias1))
	vConv2 := make([]float64, len(m.conv2))
	vBias2 := make([]float64, len(m.bias2))
	vFC := make([]float64, len(m.fc))
	vBiasFC := make([]float64, len(m.biasFC))

	gConv1 := make([]float64, len(m.conv1))
	gBias1 := make([]float64, len(m.bias1))
	gConv2 := make([]float64, len(m.conv2))
	gBias2 := make([]float64, len(m.bias2))
	gFC := make([]float64, len(m.fc))
	gBiasFC := make([]float64, len(m.biasFC))

	// A minibatch runs in two phases. The weights are fixed within it,
	// so each sample's forward pass and backward deltas depend on that
	// sample alone: they fill one slot per batch position in parallel.
	// The gradient sums then read the slots in perm order, so every sum
	// adds in the same order at any worker count.
	slots := make([]cnnSlot, min(m.Batch, len(x)))
	for k := range slots {
		slots[k] = m.newSlot()
	}

	perm := make([]int, len(x))
	for i := range perm {
		perm[i] = i
	}
	const momentum = 0.9
	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for start := 0; start < len(perm); start += m.Batch {
			end := start + m.Batch
			if end > len(perm) {
				end = len(perm)
			}
			batch := perm[start:end]
			obs.ParallelFor(len(batch), func(k int) {
				s := &slots[k]
				m.forward(x[batch[k]], &s.cnnState)
				m.backward(s, y[batch[k]])
			})
			zero(gConv1)
			zero(gBias1)
			zero(gConv2)
			zero(gBias2)
			zero(gFC)
			zero(gBiasFC)
			for k, pi := range batch {
				s := &slots[k]
				// Softmax gradient at the output.
				for c := 0; c < classes; c++ {
					d := s.out[c]
					if c == y[pi] {
						d -= 1
					}
					gBiasFC[c] += d
					base := c * m.fcIn()
					for j := 0; j < m.fcIn(); j++ {
						gFC[base+j] += d * s.p2[j]
					}
				}
				m.backConv2Weights(s.p1, s.dA2, gConv2, gBias2)
				m.backConv1(x[pi], s.dA1, gConv1, gBias1)
			}
			lr := m.LR / float64(end-start)
			sgd(m.conv1, gConv1, vConv1, lr, momentum)
			sgd(m.bias1, gBias1, vBias1, lr, momentum)
			sgd(m.conv2, gConv2, vConv2, lr, momentum)
			sgd(m.bias2, gBias2, vBias2, lr, momentum)
			sgd(m.fc, gFC, vFC, lr, momentum)
			sgd(m.biasFC, gBiasFC, vBiasFC, lr, momentum)
		}
	}
	m.fitted = true
	return nil
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

func sgd(w, g, v []float64, lr, momentum float64) {
	for i := range w {
		v[i] = momentum*v[i] - lr*g[i]
		w[i] += v[i]
	}
}

// forward runs one sample through the network, filling st. The conv
// loops walk fixed-width rows with the kernel's nine weights in locals;
// every output adds its bias, then its channels in order, then each
// channel's three kernel rows in order.
func (m *CNN) forward(img []float64, st *cnnState) {
	// Conv1 + ReLU.
	for f := 0; f < m.c1; f++ {
		w := (*[9]float64)(m.conv1[f*9:])
		w0, w1, w2, w3, w4, w5, w6, w7, w8 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
		b := m.bias1[f]
		for i := 0; i < cnnC1Out; i++ {
			r0 := (*[cnnIn]float64)(img[i*cnnIn:])
			r1 := (*[cnnIn]float64)(img[(i+1)*cnnIn:])
			r2 := (*[cnnIn]float64)(img[(i+2)*cnnIn:])
			o := (*[cnnC1Out]float64)(st.a1[(f*cnnC1Out+i)*cnnC1Out:])
			for j := 0; j < cnnC1Out; j++ {
				s := b
				s += w0*r0[j] + w1*r0[j+1] + w2*r0[j+2]
				s += w3*r1[j] + w4*r1[j+1] + w5*r1[j+2]
				s += w6*r2[j] + w7*r2[j+1] + w8*r2[j+2]
				if s < 0 {
					s = 0
				}
				o[j] = s
			}
		}
	}
	maxPool(st.a1, st.p1, st.arg1, m.c1, cnnC1Out, cnnP1Out)

	// Conv2 + ReLU over c1 channels, accumulated channel by channel into
	// the filter's output plane.
	const plane1, plane2 = cnnP1Out * cnnP1Out, cnnC2Out * cnnC2Out
	for f := 0; f < m.c2; f++ {
		out := st.a2[f*plane2 : (f+1)*plane2]
		b := m.bias2[f]
		for k := range out {
			out[k] = b
		}
		for ch := 0; ch < m.c1; ch++ {
			w := (*[9]float64)(m.conv2[(f*m.c1+ch)*9:])
			w0, w1, w2, w3, w4, w5, w6, w7, w8 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
			in := st.p1[ch*plane1 : (ch+1)*plane1]
			for i := 0; i < cnnC2Out; i++ {
				r0 := (*[cnnP1Out]float64)(in[i*cnnP1Out:])
				r1 := (*[cnnP1Out]float64)(in[(i+1)*cnnP1Out:])
				r2 := (*[cnnP1Out]float64)(in[(i+2)*cnnP1Out:])
				o := (*[cnnC2Out]float64)(out[i*cnnC2Out:])
				for j := 0; j < cnnC2Out; j++ {
					s := o[j]
					s += w0*r0[j] + w1*r0[j+1] + w2*r0[j+2]
					s += w3*r1[j] + w4*r1[j+1] + w5*r1[j+2]
					s += w6*r2[j] + w7*r2[j+1] + w8*r2[j+2]
					o[j] = s
				}
			}
		}
		for k, v := range out {
			if v < 0 {
				out[k] = 0
			}
		}
	}
	maxPool(st.a2, st.p2, st.arg2, m.c2, cnnC2Out, cnnP2Out)

	// FC + softmax.
	maxZ := math.Inf(-1)
	for c := 0; c < m.classes; c++ {
		z := m.biasFC[c]
		base := c * m.fcIn()
		for j := 0; j < m.fcIn(); j++ {
			z += m.fc[base+j] * st.p2[j]
		}
		st.out[c] = z
		if z > maxZ {
			maxZ = z
		}
	}
	sum := 0.0
	for c := 0; c < m.classes; c++ {
		st.out[c] = math.Exp(st.out[c] - maxZ)
		sum += st.out[c]
	}
	for c := 0; c < m.classes; c++ {
		st.out[c] /= sum
	}
}

// maxPool performs 2x2 max pooling per channel, recording argmax source
// indices for the backward pass. Each output row steps two columns at a
// time through its two input rows; an odd input side leaves its last
// row and column unread. The row-length conditions always hold
// (inSide >= 2*outSide) and let the compiler drop the bounds checks.
func maxPool(in, out []float64, arg []int, channels, inSide, outSide int) {
	for ch := 0; ch < channels; ch++ {
		for i := 0; i < outSide; i++ {
			top := (ch*inSide + 2*i) * inSide
			r0, r1 := in[top:top+inSide], in[top+inSide:top+2*inSide]
			o := (ch*outSide + i) * outSide
			orow, arow := out[o:o+outSide], arg[o:o+outSide]
			for j := 0; j < len(orow) && len(r0) > 1 && len(r1) > 1; j++ {
				best := math.Inf(-1)
				bestIdx := 0
				c := top + 2*j
				if r0[0] > best {
					best, bestIdx = r0[0], c
				}
				if r0[1] > best {
					best, bestIdx = r0[1], c+1
				}
				if r1[0] > best {
					best, bestIdx = r1[0], c+inSide
				}
				if r1[1] > best {
					best, bestIdx = r1[1], c+inSide+1
				}
				orow[j], arow[j] = best, bestIdx
				r0, r1 = r0[2:], r1[2:]
			}
		}
	}
}

// backward fills a slot's deltas from its forward pass for label y:
// the gradients at the pooled features, at conv2's ReLU output, at the
// first pooled map and at conv1's ReLU output.
func (m *CNN) backward(s *cnnSlot, y int) {
	// Backprop into the pooled features.
	zero(s.dP2)
	for c := 0; c < m.classes; c++ {
		d := s.out[c]
		if c == y {
			d -= 1
		}
		base := c * m.fcIn()
		for j := 0; j < m.fcIn(); j++ {
			s.dP2[j] += d * m.fc[base+j]
		}
	}
	// Unpool 2 and ReLU.
	zero(s.dA2)
	for j, src := range s.arg2 {
		if s.a2[src] > 0 {
			s.dA2[src] += s.dP2[j]
		}
	}
	// Conv2's input gradient.
	zero(s.dP1)
	m.backConv2Input(s.dA2, s.dP1)
	// Unpool 1 and ReLU.
	zero(s.dA1)
	for j, src := range s.arg1 {
		if s.a1[src] > 0 {
			s.dA1[src] += s.dP1[j]
		}
	}
}

// backConv2Input propagates conv2's upstream gradient dA2 into dP1.
func (m *CNN) backConv2Input(dA2, dP1 []float64) {
	for f := 0; f < m.c2; f++ {
		for i := 0; i < cnnC2Out; i++ {
			for j := 0; j < cnnC2Out; j++ {
				d := dA2[(f*cnnC2Out+i)*cnnC2Out+j]
				if d == 0 {
					continue
				}
				for ch := 0; ch < m.c1; ch++ {
					wBase := (f*m.c1 + ch) * 9
					pBase := ch * cnnP1Out * cnnP1Out
					for ki := 0; ki < 3; ki++ {
						row := pBase + (i+ki)*cnnP1Out
						wr := wBase + ki*3
						dP1[row+j] += d * m.conv2[wr]
						dP1[row+j+1] += d * m.conv2[wr+1]
						dP1[row+j+2] += d * m.conv2[wr+2]
					}
				}
			}
		}
	}
}

// backConv2Weights accumulates conv2 weight/bias gradients from
// upstream dA2 and the pooled conv1 output p1.
func (m *CNN) backConv2Weights(p1, dA2, gW, gB []float64) {
	for f := 0; f < m.c2; f++ {
		for i := 0; i < cnnC2Out; i++ {
			for j := 0; j < cnnC2Out; j++ {
				d := dA2[(f*cnnC2Out+i)*cnnC2Out+j]
				if d == 0 {
					continue
				}
				gB[f] += d
				for ch := 0; ch < m.c1; ch++ {
					wBase := (f*m.c1 + ch) * 9
					pBase := ch * cnnP1Out * cnnP1Out
					for ki := 0; ki < 3; ki++ {
						row := pBase + (i+ki)*cnnP1Out
						wr := wBase + ki*3
						gW[wr] += d * p1[row+j]
						gW[wr+1] += d * p1[row+j+1]
						gW[wr+2] += d * p1[row+j+2]
					}
				}
			}
		}
	}
}

// backConv1 accumulates conv1 weight/bias gradients from upstream dA1.
func (m *CNN) backConv1(img, dA1, gW, gB []float64) {
	for f := 0; f < m.c1; f++ {
		wBase := f * 9
		for i := 0; i < cnnC1Out; i++ {
			for j := 0; j < cnnC1Out; j++ {
				d := dA1[(f*cnnC1Out+i)*cnnC1Out+j]
				if d == 0 {
					continue
				}
				gB[f] += d
				for ki := 0; ki < 3; ki++ {
					row := (i + ki) * cnnIn
					wr := wBase + ki*3
					gW[wr] += d * img[row+j]
					gW[wr+1] += d * img[row+j+1]
					gW[wr+2] += d * img[row+j+2]
				}
			}
		}
	}
}

// Predict returns the argmax class for one image vector.
func (m *CNN) Predict(x []float64) int {
	if !m.fitted || len(x) != cnnIn*cnnIn {
		return 0
	}
	st := m.newState()
	m.forward(x, st)
	return argmax(st.out)
}

var _ Classifier = (*CNN)(nil)
