package nn

import (
	"fmt"
	"math"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// ReLU is the rectified-linear activation, y = max(0, x).
type ReLU struct {
	LayerName string
	lastMask  []bool
}

// NewReLU creates a relu activation layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name returns the layer's label.
func (r *ReLU) Name() string { return r.LayerName }

// Params returns nil; activations have no parameters.
func (r *ReLU) Params() []*Param { return nil }

// OutSize is the identity: activations preserve width.
func (r *ReLU) OutSize(inSize int) (int, error) { return inSize, nil }

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := x.Clone()
	if training {
		r.lastMask = make([]bool, len(y.Data))
		for i, v := range y.Data {
			if v > 0 {
				r.lastMask[i] = true
			} else {
				y.Data[i] = 0
			}
		}
		return y
	}
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward zeroes gradients where the forward input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastMask == nil {
		panic(fmt.Sprintf("relu %s: Backward before training-mode Forward", r.LayerName))
	}
	if len(grad.Data) != len(r.lastMask) {
		panic(fmt.Sprintf("relu %s: grad size %d, want %d", r.LayerName, len(grad.Data), len(r.lastMask)))
	}
	dx := grad.Clone()
	for i, on := range r.lastMask {
		if !on {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Sigmoid is the logistic activation, y = 1/(1+exp(-x)).
type Sigmoid struct {
	LayerName string
	lastOut   *tensor.Tensor
}

// NewSigmoid creates a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{LayerName: name} }

// Name returns the layer's label.
func (s *Sigmoid) Name() string { return s.LayerName }

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// OutSize is the identity.
func (s *Sigmoid) OutSize(inSize int) (int, error) { return inSize, nil }

// Forward applies the logistic function elementwise.
func (s *Sigmoid) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	y := x.Clone()
	for i, v := range y.Data {
		y.Data[i] = Sigmoid32(v)
	}
	if training {
		s.lastOut = y
	}
	return y
}

// Sigmoid32 aliases tensor.Sigmoid32, the single logistic definition every
// sigmoid path (layer, fused epilogue, plan step) shares so their outputs
// agree bitwise.
func Sigmoid32(v float32) float32 { return tensor.Sigmoid32(v) }

// Backward uses dσ/dx = σ(1−σ).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.lastOut == nil {
		panic(fmt.Sprintf("sigmoid %s: Backward before training-mode Forward", s.LayerName))
	}
	dx := grad.Clone()
	for i, g := range dx.Data {
		o := s.lastOut.Data[i]
		dx.Data[i] = g * o * (1 - o)
	}
	return dx
}

// Softmax normalizes each row into a probability distribution. The paper's
// converting autoencoder (Table I) ends in a softmax over the 784 output
// pixels, trained with MSE against the easy target image, so unlike the
// usual fused softmax+cross-entropy this layer implements the full softmax
// Jacobian in Backward.
type Softmax struct {
	LayerName string
	lastOut   *tensor.Tensor
}

// NewSoftmax creates a softmax activation layer.
func NewSoftmax(name string) *Softmax { return &Softmax{LayerName: name} }

// Name returns the layer's label.
func (s *Softmax) Name() string { return s.LayerName }

// Params returns nil.
func (s *Softmax) Params() []*Param { return nil }

// OutSize is the identity.
func (s *Softmax) OutSize(inSize int) (int, error) { return inSize, nil }

// Forward applies a numerically-stable row softmax.
func (s *Softmax) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("softmax %s: input shape %v, want 2-D", s.LayerName, x.Shape))
	}
	y := x.Clone()
	n, w := y.Shape[0], y.Shape[1]
	for i := 0; i < n; i++ {
		row := y.Data[i*w : (i+1)*w]
		SoftmaxRow(row)
	}
	if training {
		s.lastOut = y
	}
	return y
}

// Backward applies the softmax Jacobian: dx_i = y_i (g_i − Σ_j y_j g_j).
func (s *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.lastOut == nil {
		panic(fmt.Sprintf("softmax %s: Backward before training-mode Forward", s.LayerName))
	}
	n, w := grad.Shape[0], grad.Shape[1]
	dx := tensor.New(n, w)
	for i := 0; i < n; i++ {
		g := grad.Data[i*w : (i+1)*w]
		y := s.lastOut.Data[i*w : (i+1)*w]
		var dot float32
		for j := range g {
			dot += y[j] * g[j]
		}
		d := dx.Data[i*w : (i+1)*w]
		for j := range g {
			d[j] = y[j] * (g[j] - dot)
		}
	}
	return dx
}

// SoftmaxRow normalizes a single row in place with the max-subtraction trick.
func SoftmaxRow(row []float32) {
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// ActivityRegularizer is an identity layer that applies a Keras-style L1
// activity penalty to the activations flowing through it: the loss gains
// λ·Σ|a| and the backward pass adds λ·sign(a) to the gradient. The paper
// attaches this to the encoder output with λ = 1e-7 ("L1 penalty with a
// coefficient of 10e-8").
type ActivityRegularizer struct {
	LayerName string
	Lambda    float32
	lastIn    *tensor.Tensor
}

// NewActivityRegularizer creates the L1 activity-penalty layer.
func NewActivityRegularizer(name string, lambda float32) *ActivityRegularizer {
	return &ActivityRegularizer{LayerName: name, Lambda: lambda}
}

// Name returns the layer's label.
func (a *ActivityRegularizer) Name() string { return a.LayerName }

// Params returns nil.
func (a *ActivityRegularizer) Params() []*Param { return nil }

// OutSize is the identity.
func (a *ActivityRegularizer) OutSize(inSize int) (int, error) { return inSize, nil }

// Forward passes activations through unchanged, caching them in training
// mode so Backward can add the penalty gradient.
func (a *ActivityRegularizer) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if training {
		a.lastIn = x
	}
	return x
}

// Backward adds λ·sign(a) to the incoming gradient.
func (a *ActivityRegularizer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.lastIn == nil {
		panic(fmt.Sprintf("activityreg %s: Backward before training-mode Forward", a.LayerName))
	}
	dx := grad.Clone()
	for i, v := range a.lastIn.Data {
		switch {
		case v > 0:
			dx.Data[i] += a.Lambda
		case v < 0:
			dx.Data[i] -= a.Lambda
		}
	}
	return dx
}

// Penalty returns the L1 penalty value λ·Σ|a| for the last training batch,
// for loss reporting.
func (a *ActivityRegularizer) Penalty() float64 {
	if a.lastIn == nil {
		return 0
	}
	return float64(a.Lambda) * a.lastIn.AbsSum()
}

// Dropout randomly zeroes activations during training with probability Rate
// and rescales survivors by 1/(1−Rate) (inverted dropout), so inference is
// an identity.
type Dropout struct {
	LayerName string
	Rate      float32
	rng       *rng.RNG
	lastMask  []float32
}

// NewDropout creates a dropout layer with its own RNG stream.
func NewDropout(name string, rate float32, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("dropout %s: rate %v outside [0,1)", name, rate))
	}
	return &Dropout{LayerName: name, Rate: rate, rng: r}
}

// Name returns the layer's label.
func (d *Dropout) Name() string { return d.LayerName }

// Params returns nil.
func (d *Dropout) Params() []*Param { return nil }

// OutSize is the identity.
func (d *Dropout) OutSize(inSize int) (int, error) { return inSize, nil }

// Forward drops activations in training mode; identity at inference.
func (d *Dropout) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if !training || d.Rate == 0 {
		return x
	}
	y := x.Clone()
	scale := 1 / (1 - d.Rate)
	d.lastMask = make([]float32, len(y.Data))
	for i := range y.Data {
		if d.rng.Float32() < d.Rate {
			y.Data[i] = 0
		} else {
			d.lastMask[i] = scale
			y.Data[i] *= scale
		}
	}
	return y
}

// Backward scales gradients by the same mask used in Forward.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.Rate == 0 {
		return grad
	}
	if d.lastMask == nil {
		panic(fmt.Sprintf("dropout %s: Backward before training-mode Forward", d.LayerName))
	}
	dx := grad.Clone()
	for i := range dx.Data {
		dx.Data[i] *= d.lastMask[i]
	}
	return dx
}
