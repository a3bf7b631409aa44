package numeric

import "math"

// Format-specialized arithmetic kernels. Type.Quantize and Type.MACq pay a
// kind switch plus nested conversion calls on every invocation, which
// dominates the simulator's accumulation-chain replays (tens of ns per MAC
// against ~1 ns of arithmetic). QuantFunc and MACFunc return pre-built
// closures that evaluate the same rounding with the format dispatch hoisted
// out of the loop and the common case reduced to a handful of integer/float
// ops. The generic methods remain the reference semantics; every kernel is
// bit-identical to them for every input, enforced by the fuzz sweep in
// TestKernelsBitIdentical.

var (
	quantFns [numTypes]func(float64) float64
	macFns   [numTypes]func(acc, a, b float64) float64
	accFns   [numTypes]func(acc, p float64) float64
	fxGrids  [numTypes]fxGrid // of the fixed-point formats
)

func init() {
	for _, t := range Types {
		if !t.IsFloat() {
			fxGrids[t] = newFxGrid(t)
		}
		quantFns[t] = buildQuantFn(t)
		macFns[t] = buildMACFn(t)
		accFns[t] = buildAccFn(t)
	}
}

// QuantFunc returns a specialized implementation of t.Quantize,
// bit-identical for every input including NaN, infinities and signed zero.
func (t Type) QuantFunc() func(float64) float64 { return quantFns[t] }

// MACFunc returns a specialized implementation of t.MACq (accumulate a
// pre-quantized operand product), bit-identical for every input.
func (t Type) MACFunc() func(acc, a, b float64) float64 { return macFns[t] }

// AccFunc returns a specialized accumulate-quantize step — Quantize(acc+p),
// the second half of MACq — for operands that are both grid values of the
// format (outputs of its quantizer, the accumulator invariant of every MAC
// chain). Bit-identical to Quantize(acc+p) under that precondition, pinned
// by TestKernelsBitIdentical. The restriction is what makes the fixed-point
// kernel collapse: the sum of two grid values is exactly representable, so
// the rounding step vanishes and only saturation remains.
func (t Type) AccFunc() func(acc, p float64) float64 { return accFns[t] }

func buildQuantFn(t Type) func(float64) float64 {
	switch t {
	case Double:
		return func(v float64) float64 { return v }
	case Float:
		return func(v float64) float64 { return float64(float32(v)) }
	case Float16:
		return f16Quantize
	default:
		g := &fxGrids[t]
		return func(v float64) float64 { return g.quant(v) }
	}
}

// Binary64 encoding constants of the binary16 normal range: a finite v
// rounds to a finite normal half exactly when 2^-14 ≤ |v| < 65520 (65520 is
// the tie between the largest finite half, 65504, and the overflow to
// infinity).
const (
	f16NormMin   = 1009 << 52         // 2^-14, the smallest normal half
	f16OverMin   = 0x40EFFE0000000000 // 65520
	f16RoundHalf = 1<<41 - 1          // half-ulp minus one of the 42 dropped bits
)

// f16Round is the common case of f16Quantize in inlinable, branch-free
// form: for a magnitude that rounds to a normal half (2^-14 ≤ |v| < 65520)
// the rounding happens directly on the binary64 bit pattern — adding
// half-ulp-minus-one plus the round bit's LSB rounds the 42 dropped mantissa
// bits to nearest-even, with a mantissa overflow carrying into the exponent
// exactly as the reference conversion does. The same arithmetic maps ±0 to
// itself, sign preserved (every ReLU-killed activation's product). ok is
// false for everything else — subnormals, overflow, Inf, NaN — and r is then
// meaningless.
func f16Round(v float64) (r float64, ok bool) {
	b := math.Float64bits(v)
	abs := b &^ (1 << 63)
	r = math.Float64frombits(b&(1<<63) | (abs+f16RoundHalf+((abs>>42)&1))&^(1<<42-1))
	return r, abs-f16NormMin < f16OverMin-f16NormMin || abs == 0
}

// f16Quantize rounds v to the nearest binary16-representable value
// (round-to-nearest-even), bit-identical to F16ToFloat(F16FromFloat(v)),
// which is where everything f16Round declines goes.
func f16Quantize(v float64) float64 {
	if r, ok := f16Round(v); ok {
		return r
	}
	return F16ToFloat(F16FromFloat(v))
}

// fxGrid holds the constants of one fixed-point format and its two
// quantizers, small enough to inline into the loops that use them.
type fxGrid struct {
	scale, inv     float64 // 2^f and 2^-f
	maxRaw, minRaw float64 // saturation bounds of the raw integer
	satMax, satMin float64 // … and of the value
}

func newFxGrid(t Type) fxGrid {
	w, f := t.Width(), t.FractionBits()
	g := fxGrid{
		scale:  float64(int64(1) << f),
		maxRaw: float64(int64(1)<<(w-1) - 1),
		minRaw: float64(-(int64(1) << (w - 1))),
	}
	g.inv = 1 / g.scale
	g.satMax, g.satMin = g.maxRaw*g.inv, g.minRaw*g.inv
	return g
}

// fxRoundMagic is 1.5·2^52: adding it to s pushes the sum into [2^52, 2^53],
// where binary64 has exactly integer resolution, so the addition itself
// rounds s to the nearest integer, ties to even (the constant is even), and
// subtracting it back is exact. That holds for |s| ≤ 2^51; beyond, the result
// is off by at most the sum's coarser ulp but its magnitude stays ≥ 2^51.
const fxRoundMagic = 3 << 51

// quant is the fused fixed-point quantizer: the same value
// fxDecode(fxEncode(t, v)) takes, without materializing the raw integer.
// The magic add rounds v·2^f to nearest-even without a branch; magnitudes it
// does not round exactly are far beyond the saturation bound (2^(w-1) ≤
// 2^31), so the clamps still fire. The rounded value r is integral with
// |r| < 2^31, so int64(r) == r exactly, and multiplying by the exact power of
// two 2^-f equals fxDecode's division bit-for-bit. r is never -0 (x - x is
// +0), which folds -0 and every negative that rounds to zero to +0 exactly
// as the integer round trip does. NaN fails every comparison and encodes as
// raw 0; keeping it off the in-range path saves that path a test.
func (g *fxGrid) quant(v float64) float64 {
	r := float64(v*g.scale) + fxRoundMagic - fxRoundMagic
	if r > g.minRaw && r < g.maxRaw {
		return r * g.inv
	}
	if r >= g.maxRaw {
		return g.satMax
	}
	if r <= g.minRaw {
		return g.satMin
	}
	return 0
}

// acc quantizes v = the sum of two grid values. Grid values are finite
// multiples of 2^-f with |v*scale| ≤ 2^(w-1) ≤ 2^31, so the sum is exact in
// binary64 (it needs at most w+1 ≤ 33 significant bits), v*scale is an exact
// integer, and quant's round-to-nearest-even is the identity — only the
// saturation clamps can fire, and scaling by a power of two is exact, so
// they compare the value itself. quant never emits -0, so the sum of two
// grid values cannot be -0 either. At the clamp boundaries quant returns the
// same value: r == maxRaw yields satMax == v exactly.
func (g *fxGrid) acc(v float64) float64 {
	if v >= g.satMax {
		return g.satMax
	}
	if v <= g.satMin {
		return g.satMin
	}
	return v
}

func buildMACFn(t Type) func(acc, a, b float64) float64 {
	switch t {
	case Double:
		// Both quantizations are the identity; mul-then-add matches MACq's
		// operation order. The conversion rounds the product, so no
		// architecture fuses the two into an FMA (scripts/check_nofma.sh).
		return func(acc, a, b float64) float64 {
			p := float64(a * b)
			return acc + p
		}
	case Float:
		return func(acc, a, b float64) float64 {
			p := float64(float32(a * b))
			return float64(float32(acc + p))
		}
	case Float16:
		return func(acc, a, b float64) float64 {
			return f16Quantize(acc + f16Quantize(a*b))
		}
	default:
		// Both quantization steps inline: an indirect call per rounding
		// costs as much as the rounding itself.
		g := &fxGrids[t]
		return func(acc, a, b float64) float64 { return g.quant(acc + g.quant(a*b)) }
	}
}

func buildAccFn(t Type) func(acc, p float64) float64 {
	switch t {
	case Double:
		return func(acc, p float64) float64 { return acc + p }
	case Float:
		return func(acc, p float64) float64 { return float64(float32(acc + p)) }
	case Float16:
		return func(acc, p float64) float64 { return f16Quantize(acc + p) }
	default:
		g := &fxGrids[t]
		return func(acc, p float64) float64 { return g.acc(acc + p) }
	}
}
