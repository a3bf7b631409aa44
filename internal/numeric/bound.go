package numeric

import "math"

// Norms are the ℓ1, ℓ2 and ℓ∞ norms of a vector: a lane's quantized weight
// row, or the quantized input deltas of a call's changed taps.
type Norms struct{ L1, L2, Inf float64 }

// NormsOf returns the norms of v. Squares that would under- or overflow
// binary64 leave ℓ2 at its ℓ∞·√n upper bound, so the result never
// understates a norm; a NaN element makes every norm NaN.
func NormsOf(v []float64) Norms {
	var n Norms
	for _, x := range v {
		a := math.Abs(x)
		n.L1 += a
		n.L2 += a * a
		n.Inf = max(n.Inf, a)
	}
	if n.Inf < 0x1p-500 || n.Inf > 0x1p500 {
		n.L2 = n.Inf * math.Sqrt(float64(len(v)))
	} else {
		n.L2 = math.Sqrt(n.L2)
	}
	return n
}

// LaneBound bounds |faulty − golden| of every partial accumulator of one
// lane of a ChainReplay call — the running ones as well as the final — from
// the lane's weight norms w, the norms dx of the call's changed taps' input
// deltas (faulty minus golden quantized input), the lane's largest golden
// partial magnitude maxAbs (see ChainBounds), the steps the replay walks
// (chain minus the first changed tap) and the changed taps. It returns +Inf
// when it proves nothing: a non-finite operand, or a float lane that could
// overflow the format.
//
// The faulty chain differs from the golden one by its changed products and
// by rounding. Hölder's inequality bounds the first, Σ|w_j·Δx_j|, by the
// norm part min(‖w‖₂‖Δx‖₂, ‖w‖₁‖Δx‖∞, ‖w‖∞‖Δx‖₁), which every running sum
// shares. Fixed point adds a slack per changed tap: the two product
// roundings to the grid and binary64's rounding of the two products;
// accumulation is exact and its saturation 1-Lipschitz. A float format adds
// half an ulp per rounding of a golden and of a faulty value: one product
// each per changed tap, one sum each per walked step. Every such value is at
// most C = 2·(maxAbs + norm)·(1+2⁻⁷) plus the format's least normal in
// magnitude, which holds while the slack stays below maxAbs + norm, so each
// rounding costs at most half an ulp at C and no value overflows while C is
// finite in the format. The final factor covers binary32's double rounding
// through binary64 and the rounding of this computation itself.
func (t Type) LaneBound(w, dx Norms, maxAbs float64, walked, changed int) float64 {
	norm := min(w.L2*dx.L2, w.L1*dx.Inf, w.Inf*dx.L1)
	var slack float64
	if t.IsFloat() {
		f := &floatFormats[t]
		c := 2*(maxAbs+norm)*(1+0x1p-7) + f.minNormal
		if !(c <= f.max) {
			return math.Inf(1)
		}
		slack = float64(walked+changed) * f.ulp(c)
		if slack > maxAbs+norm {
			return math.Inf(1)
		}
	} else {
		slack = float64(changed) * fxGrids[t].slack
	}
	b := (norm + slack) * (1 + 0x1p-20)
	if !(b < math.Inf(1)) {
		return math.Inf(1)
	}
	return b
}

// floatFormat holds what LaneBound needs of a float format.
type floatFormat struct {
	minNormal, max float64
	ulpScale       float64 // 2^-(p-1) for p significand bits
}

var floatFormats = [...]floatFormat{
	Double:  {minNormal: 0x1p-1022, max: math.MaxFloat64, ulpScale: 0x1p-52},
	Float:   {minNormal: 0x1p-126, max: math.MaxFloat32, ulpScale: 0x1p-23},
	Float16: {minNormal: 0x1p-14, max: maxFloat16, ulpScale: 0x1p-10},
}

// ulp returns the format's spacing at magnitude c ≥ its least normal, which
// no value of magnitude at most c exceeds: c's power of two times 2^-(p-1).
func (f *floatFormat) ulp(c float64) float64 {
	return math.Float64frombits(math.Float64bits(c)&^(1<<52-1)) * f.ulpScale
}
