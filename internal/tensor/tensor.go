// Package tensor provides the dense CHW tensors used throughout the DNN
// simulator: feature maps (fmaps), convolution kernels and fully-connected
// weight matrices. Values are stored as float64 and quantized through the
// active numeric format by the layer code, so tensors are format-agnostic.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes a 3-D channel-height-width extent. Vectors (FC
// activations) use C=len, H=W=1.
type Shape struct {
	C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// String formats the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Valid reports whether every extent is positive.
func (s Shape) Valid() bool { return s.C > 0 && s.H > 0 && s.W > 0 }

// Tensor is a dense CHW-ordered tensor.
type Tensor struct {
	Shape Shape
	Data  []float64
}

// New allocates a zero tensor of the given shape.
func New(s Shape) *Tensor {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Tensor{Shape: s, Data: make([]float64, s.Elems())}
}

// NewVector allocates a zero 1-D tensor with n channels.
func NewVector(n int) *Tensor { return New(Shape{C: n, H: 1, W: 1}) }

// FromSlice wraps data (not copied) in a tensor of shape s.
func FromSlice(s Shape, data []float64) *Tensor {
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), s, s.Elems()))
	}
	return &Tensor{Shape: s, Data: data}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape)
	copy(c.Data, t.Data)
	return c
}

// Index converts (c,h,w) coordinates to a flat offset.
func (t *Tensor) Index(c, h, w int) int {
	return (c*t.Shape.H+h)*t.Shape.W + w
}

// At returns the element at (c,h,w).
func (t *Tensor) At(c, h, w int) float64 { return t.Data[t.Index(c, h, w)] }

// Set stores v at (c,h,w).
func (t *Tensor) Set(c, h, w int, v float64) { t.Data[t.Index(c, h, w)] = v }

// Coords converts a flat offset back to (c,h,w).
func (t *Tensor) Coords(i int) (c, h, w int) {
	w = i % t.Shape.W
	i /= t.Shape.W
	h = i % t.Shape.H
	c = i / t.Shape.H
	return
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float64) float64) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// MinMax returns the smallest and largest element. It panics on an empty
// tensor (shapes are always non-empty by construction).
func (t *Tensor) MinMax() (min, max float64) {
	min, max = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

// EuclideanDistance returns the L2 distance between two equal-shaped
// tensors — the paper's Figure 7 metric for error spread. Non-finite
// differences (from FP overflow under fault) contribute the largest finite
// magnitude so the distance stays ordered and finite.
func EuclideanDistance(a, b *Tensor) float64 {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	var sum float64
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return math.MaxFloat64
		}
		sum += float64(d * d)
		if math.IsInf(sum, 0) {
			return math.MaxFloat64
		}
	}
	return math.Sqrt(sum)
}

// BitwiseMismatch counts elements whose float64 bit patterns differ between
// two equal-shaped tensors — used for the Table 5 bit-wise SDC metric.
func BitwiseMismatch(a, b *Tensor) int {
	if a.Shape != b.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	n := 0
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			n++
		}
	}
	return n
}

// BitIdentical reports whether two tensors have the same shape and hold
// bit-identical values — unlike BitwiseMismatch it distinguishes ±0 and NaN
// payloads, which is the fault-propagation engine's definition of
// "unchanged".
func BitIdentical(a, b *Tensor) bool {
	if a.Shape != b.Shape {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// ArgTopK returns the indices of the k largest elements of a vector tensor
// in descending order. Ties resolve to the lower index, making rankings
// deterministic.
func (t *Tensor) ArgTopK(k int) []int {
	n := len(t.Data)
	if k > n {
		k = n
	}
	idx := make([]int, 0, k)
	used := make([]bool, n)
	for len(idx) < k {
		best := -1
		for i, v := range t.Data {
			if used[i] {
				continue
			}
			if best == -1 || greater(v, t.Data[best]) {
				best = i
			}
		}
		used[best] = true
		idx = append(idx, best)
	}
	return idx
}

// ArgMax returns ArgTopK(1)[0] — the index of the largest element, the lowest
// such index on a tie, NaN ranking below everything — in one pass and without
// allocating.
func (t *Tensor) ArgMax() int {
	best := 0
	for i, v := range t.Data {
		if greater(v, t.Data[best]) {
			best = i
		}
	}
	return best
}

// Rank returns the position of element i in ArgTopK's order — how many
// elements rank before it, so ArgTopK(k) contains i exactly when Rank(i) < k
// — in one pass and without allocating: an earlier element ranks before i
// unless i is strictly greater, a later one only if it is strictly greater.
func (t *Tensor) Rank(i int) int {
	vi, r := t.Data[i], 0
	for _, v := range t.Data[:i] {
		if !greater(vi, v) {
			r++
		}
	}
	for _, v := range t.Data[i+1:] {
		if greater(v, vi) {
			r++
		}
	}
	return r
}

// greater orders a before b, treating NaN as smallest so a corrupted score
// never outranks a real one.
func greater(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a > b
}
