package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// kernelInputs yields a stream of adversarial float64 values: every binary16
// value and its neighbors, fixed-point grid points and rounding midpoints,
// saturation boundaries, both zeros (f16Round keeps them off the reference
// round trip, sign preserved), the half-precision overflow tie 65520,
// infinities, NaN, subnormals, the edge of the fixed-point magic add's exact
// range, and a broad random sweep across the exponent range.
func kernelInputs(t Type) []float64 {
	posZero, negZero := 0.0, math.Copysign(0, -1)
	vals := []float64{
		posZero, negZero, 1, -1, 0.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		maxFloat16, -maxFloat16, maxFloat32, -maxFloat32,
		t.MaxValue(), t.MinValue(), t.MaxValue() * 2, t.MinValue() * 2,
	}
	for _, v := range []float64{65520, 0x1p-14, 0x1p-24, 0x1p-25} {
		for _, s := range []float64{v, -v} {
			vals = append(vals, s, math.Nextafter(s, 0), math.Nextafter(s, 2*s))
		}
	}
	if !t.IsFloat() {
		f := t.FractionBits()
		ulp := 1 / float64(int64(1)<<f)
		for _, e := range []int{31, 50, 51, 52, 53, 62} { // raw magnitudes around fxRoundMagic's exact range
			for _, s := range []float64{math.Ldexp(1, e-f), -math.Ldexp(1, e-f)} {
				vals = append(vals, s, s+ulp/2, s-ulp/2, math.Nextafter(s, 0), math.Nextafter(s, 2*s))
			}
		}
		for _, g := range []float64{0, 1, -1, t.MaxValue(), t.MinValue()} {
			vals = append(vals, g, g+ulp/2, g-ulp/2, g+ulp/4, g+3*ulp/4, g+ulp, g-ulp)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ { // random grid points and exact tie midpoints
			g := float64(rng.Int63n(int64(1)<<t.Width())-int64(1)<<(t.Width()-1)) * ulp
			vals = append(vals, g, g+ulp/2, g-ulp/2)
		}
	}
	for h := 0; h < 1<<16; h++ { // the whole half-precision grid, with
		v := F16ToFloat(uint16(h)) // neighbors and exact tie midpoints
		up := math.Nextafter(v, math.Inf(1))
		vals = append(vals, v, up, math.Nextafter(v, math.Inf(-1)))
		if next := F16ToFloat(uint16(h + 1)); !math.IsInf(v, 0) && !math.IsInf(next, 0) &&
			v == v && next == next && (h>>10)&0x1f != 0x1f {
			vals = append(vals, v+(next-v)/2)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		// Random sign/exponent/mantissa rather than Float64() so the sweep
		// covers subnormal, huge, and non-finite regions too.
		vals = append(vals, math.Float64frombits(rng.Uint64()))
		vals = append(vals, (rng.Float64()*2-1)*math.Ldexp(1, rng.Intn(40)-20))
	}
	return vals
}

// TestKernelsBitIdentical is the contract of kernels.go: for every format,
// QuantFunc matches Quantize and MACFunc matches MACq bit-for-bit on an
// adversarial input sweep.
func TestKernelsBitIdentical(t *testing.T) {
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for _, dt := range Types {
		vals := kernelInputs(dt)
		q, mac, accf := dt.QuantFunc(), dt.MACFunc(), dt.AccFunc()
		for _, v := range vals {
			if got, want := q(v), dt.Quantize(v); !eq(got, want) {
				t.Fatalf("%s QuantFunc(%x) = %x, Quantize = %x",
					dt, math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
			}
		}
		// MAC operands must be representable (the MACq precondition);
		// accumulators range over raw sweep values.
		var ops []float64
		for i := 0; i < len(vals); i += 3 {
			ops = append(ops, dt.Quantize(vals[i]))
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40000; i++ {
			acc := vals[rng.Intn(len(vals))]
			a := ops[rng.Intn(len(ops))]
			b := ops[rng.Intn(len(ops))]
			if got, want := mac(acc, a, b), dt.MACq(acc, a, b); !eq(got, want) {
				t.Fatalf("%s MACFunc(%x, %x, %x) = %x, MACq = %x", dt,
					math.Float64bits(acc), math.Float64bits(a), math.Float64bits(b),
					math.Float64bits(got), math.Float64bits(want))
			}
			// The decomposed MAC used by cached chain replays: for a grid
			// accumulator (AccFunc's precondition), product quantize then
			// accumulate quantize must compose to MACq.
			qacc := dt.Quantize(acc)
			if got, want := accf(qacc, q(a*b)), dt.MACq(qacc, a, b); !eq(got, want) {
				t.Fatalf("%s AccFunc(%x, QuantFunc(%x*%x)) = %x, MACq = %x", dt,
					math.Float64bits(qacc), math.Float64bits(a), math.Float64bits(b),
					math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := accf(qacc, b), dt.Quantize(qacc+b); !eq(got, want) {
				t.Fatalf("%s AccFunc(%x, %x) = %x, Quantize(sum) = %x", dt,
					math.Float64bits(qacc), math.Float64bits(b),
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
