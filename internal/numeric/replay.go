package numeric

import "math"

// chainLanes is the number of output elements one replay loop advances
// together. A single chain is a serial dependency (add → quantize → compare,
// tap after tap) and leaves the core waiting on latency; chainLanes chains
// over the same changed taps are that many independent dependencies in one
// loop body, which the core overlaps.
const chainLanes = 4

// ChainReplay recomputes len(dst) quantized accumulation chains that read
// the same inputs through different weights — the output neurons of an FC
// layer, the output channels of one CONV position — and differ from the
// cached golden replay of those chains at exactly the ascending tap
// positions `steps`, where xs[i] is the faulty quantized input at steps[i].
// dst[i] receives lane i's final accumulator. Lane i's golden internals
// start at prefix[i*rows*(chain+1)] (the partial accumulator before each
// tap, entry `chain` being the final value) and prods[i*rows*chain] (each
// tap's quantized product), its quantized weights at qw[i*chain] and its
// ChainBounds at bounds[2*i*rows] (lo, then hi): rows is the distance
// between consecutive lanes in chain rows, 1 for FC and the output plane
// for CONV. Only the fixed-point formats read bounds; float formats ignore
// them and may pass nil.
//
// Each MAC decomposes into product-quantize and accumulate-quantize —
// bit-identical to MACq (pinned by TestChainReplayBitIdentical) — so cached
// golden products substitute for unchanged taps, the replay starts at the
// partial before the first changed tap, and a bit-equal partial accumulator
// proves the remaining unchanged taps reproduce the golden partials
// (identical operations on identical values), allowing an early out or a
// skip to the next changed tap. The lanes advance in groups of chainLanes
// and a group skips jointly, only when every lane has re-converged; a lane
// that re-converged alone keeps accumulating golden products onto a golden
// partial, which recomputes exactly the partials the skip would have read
// from prefix. A tail group repeats its last lane. The loop bodies are
// specialized per format with the quantizer inlined: an indirect kernel
// call costs as much as the arithmetic it wraps.
//
// A fixed-point group first tries the closed form (closedFx), which visits
// only the changed taps, and walks the chain with replayFx only when a lane
// might saturate.
func (t Type) ChainReplay(dst, prefix, prods, qw, bounds []float64, rows int, steps []int, xs []float64, chain int) {
	ps, ds := rows*(chain+1), rows*chain
	if len(steps) == 0 {
		for i := range dst {
			dst[i] = prefix[i*ps+chain]
		}
		return
	}
	var out [chainLanes]float64
	for g := 0; g < len(dst); g += chainLanes {
		n := min(chainLanes, len(dst)-g)
		gp, gd, gw := prefix[g*ps:], prods[g*ds:], qw[g*chain:]
		switch t {
		case Double:
			replayDouble(&out, gp, gd, gw, ps, ds, n-1, steps, xs, chain)
		case Float:
			replayFloat(&out, gp, gd, gw, ps, ds, n-1, steps, xs, chain)
		case Float16:
			replayF16(&out, gp, gd, gw, ps, ds, n-1, steps, xs, chain)
		default:
			fx := &fxGrids[t]
			if !closedFx(&out, fx, gp, gd, gw, bounds[2*g*rows:], ps, ds, 2*rows, n-1, steps, xs, chain) {
				replayFx(&out, fx, gp, gd, gw, ps, ds, n-1, steps, xs, chain)
			}
		}
		copy(dst[g:], out[:n])
	}
}

// ChainBounds returns the least and the greatest partial accumulator of one
// golden chain, given its prefix (chain+1) and prods (chain) rows; hi is
// +Inf when any tap's accumulate clamped (prefix[j+1] != prefix[j] +
// prods[j]), which keeps closedFx off that chain. The layers store the pair
// beside the rows when they fill an element.
func ChainBounds(prefix, prods []float64) (lo, hi float64) {
	lo, hi = prefix[0], prefix[0]
	clamped := false
	for j, p := range prods {
		v := prefix[j+1]
		lo, hi = min(lo, v), max(hi, v)
		clamped = clamped || v != prefix[j]+p
	}
	if clamped {
		hi = math.Inf(1)
	}
	return lo, hi
}

// maxClosedSteps bounds the changed taps closedFx sums: a tap's Δ is at
// most 2^32 grid units (the width of a 32-bit format's range), so up to
// 2^20 of them keep every running sum below 2^52 units, where binary64 adds
// grid values exactly.
const maxClosedSteps = 1 << 20

// closedFx is the fixed-point closed form. fxGrid.acc is exact except where
// it clamps, so a lane whose golden partials never clamped, and whose faulty
// partials — golden partial plus the Δ (faulty minus golden quantized
// product) summed over the changed taps so far — all stay inside [satMin,
// satMax], ends at the golden final plus the whole Δ, bit for bit: every
// term is a multiple of 2^-f and every sum is exact. acc is the identity at
// the bounds themselves, so the check is non-strict. A lane's faulty
// partials are bounded by its golden lo/hi (bounds, stride bs) plus the
// least/greatest running Δ; closedFx writes out and returns true when every
// lane of the group passes, and returns false (out unspecified) otherwise.
func closedFx(out *[chainLanes]float64, fx *fxGrid, prefix, prods, qw, bounds []float64, ps, ds, bs, last int, steps []int, xs []float64, chain int) bool {
	if len(steps) > maxClosedSteps {
		return false
	}
	d0, d1, d2, d3 := laneRows(prods, ds, last, chain)
	w0, w1, w2, w3 := laneRows(qw, chain, last, chain)
	var s0, s1, s2, s3, lo0, lo1, lo2, lo3, hi0, hi1, hi2, hi3 float64
	for i, j := range steps {
		x := xs[i]
		s0 += fx.quant(w0[j]*x) - d0[j]
		s1 += fx.quant(w1[j]*x) - d1[j]
		s2 += fx.quant(w2[j]*x) - d2[j]
		s3 += fx.quant(w3[j]*x) - d3[j]
		lo0, lo1, lo2, lo3 = min(lo0, s0), min(lo1, s1), min(lo2, s2), min(lo3, s3)
		hi0, hi1, hi2, hi3 = max(hi0, s0), max(hi1, s1), max(hi2, s2), max(hi3, s3)
	}
	b0, b1, b2, b3 := laneRows(bounds, bs, last, 2)
	if b0[0]+lo0 < fx.satMin || b1[0]+lo1 < fx.satMin || b2[0]+lo2 < fx.satMin || b3[0]+lo3 < fx.satMin ||
		b0[1]+hi0 > fx.satMax || b1[1]+hi1 > fx.satMax || b2[1]+hi2 > fx.satMax || b3[1]+hi3 > fx.satMax {
		return false
	}
	p0, p1, p2, p3 := laneRows(prefix, ps, last, chain+1)
	out[0], out[1], out[2], out[3] = p0[chain]+s0, p1[chain]+s1, p2[chain]+s2, p3[chain]+s3
	return true
}

// laneRows returns the n-element rows of a group's lanes, stride apart in
// s; lanes past `last` repeat lane last, so a tail group runs the same loop.
func laneRows(s []float64, stride, last, n int) (r0, r1, r2, r3 []float64) {
	l1, l2, l3 := min(1, last)*stride, min(2, last)*stride, min(3, last)*stride
	return s[:n], s[l1 : l1+n], s[l2 : l2+n], s[l3 : l3+n]
}

// replayDouble: both quantizations are the identity. Re-convergence is
// still possible (a sub-ulp delta can round away), but detecting it costs
// more than the plain adds it would save, and skipping the check is
// bit-identical — the replay simply recomputes what the early out would
// have read from prefix. The float64 conversions are explicit roundings,
// which keeps implementations from fusing the multiply-add into an FMA.
func replayDouble(out *[chainLanes]float64, prefix, prods, qw []float64, ps, ds, last int, steps []int, xs []float64, chain int) {
	p0, p1, p2, p3 := laneRows(prefix, ps, last, chain+1)
	d0, d1, d2, d3 := laneRows(prods, ds, last, chain)
	w0, w1, w2, w3 := laneRows(qw, chain, last, chain)
	j := steps[0]
	a0, a1, a2, a3 := p0[j], p1[j], p2[j], p3[j]
	si := 0
	for ; j < chain; j++ {
		if si < len(steps) && steps[si] == j {
			x := xs[si]
			si++
			a0 += float64(w0[j] * x)
			a1 += float64(w1[j] * x)
			a2 += float64(w2[j] * x)
			a3 += float64(w3[j] * x)
		} else {
			a0 += d0[j]
			a1 += d1[j]
			a2 += d2[j]
			a3 += d3[j]
		}
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

func replayFloat(out *[chainLanes]float64, prefix, prods, qw []float64, ps, ds, last int, steps []int, xs []float64, chain int) {
	p0, p1, p2, p3 := laneRows(prefix, ps, last, chain+1)
	d0, d1, d2, d3 := laneRows(prods, ds, last, chain)
	w0, w1, w2, w3 := laneRows(qw, chain, last, chain)
	si := 0
	for si < len(steps) {
		j := steps[si]
		a0, a1, a2, a3 := p0[j], p1[j], p2[j], p3[j]
		for {
			q0, q1, q2, q3 := d0[j], d1[j], d2[j], d3[j]
			if si < len(steps) && steps[si] == j {
				x := xs[si]
				si++
				q0 = float64(float32(w0[j] * x))
				q1 = float64(float32(w1[j] * x))
				q2 = float64(float32(w2[j] * x))
				q3 = float64(float32(w3[j] * x))
			}
			a0 = float64(float32(a0 + q0))
			a1 = float64(float32(a1 + q1))
			a2 = float64(float32(a2 + q2))
			a3 = float64(float32(a3 + q3))
			j++
			if j == chain {
				out[0], out[1], out[2], out[3] = a0, a1, a2, a3
				return
			}
			if (si == len(steps) || steps[si] != j) && sameBits(a0, p0[j]) &&
				sameBits(a1, p1[j]) && sameBits(a2, p2[j]) && sameBits(a3, p3[j]) {
				break // every lane re-converged: skip ahead to the next changed tap
			}
		}
	}
	out[0], out[1], out[2], out[3] = p0[chain], p1[chain], p2[chain], p3[chain]
}

func replayF16(out *[chainLanes]float64, prefix, prods, qw []float64, ps, ds, last int, steps []int, xs []float64, chain int) {
	p0, p1, p2, p3 := laneRows(prefix, ps, last, chain+1)
	d0, d1, d2, d3 := laneRows(prods, ds, last, chain)
	w0, w1, w2, w3 := laneRows(qw, chain, last, chain)
	si := 0
	for si < len(steps) {
		j := steps[si]
		a0, a1, a2, a3 := p0[j], p1[j], p2[j], p3[j]
		for {
			q0, q1, q2, q3 := d0[j], d1[j], d2[j], d3[j]
			if si < len(steps) && steps[si] == j {
				x := xs[si]
				si++
				v0, v1, v2, v3 := w0[j]*x, w1[j]*x, w2[j]*x, w3[j]*x
				var ok0, ok1, ok2, ok3 bool
				q0, ok0 = f16Round(v0)
				q1, ok1 = f16Round(v1)
				q2, ok2 = f16Round(v2)
				q3, ok3 = f16Round(v3)
				if !(ok0 && ok1 && ok2 && ok3) {
					q0, q1, q2, q3 = f16Quantize(v0), f16Quantize(v1), f16Quantize(v2), f16Quantize(v3)
				}
			}
			v0, v1, v2, v3 := a0+q0, a1+q1, a2+q2, a3+q3
			var ok0, ok1, ok2, ok3 bool
			a0, ok0 = f16Round(v0)
			a1, ok1 = f16Round(v1)
			a2, ok2 = f16Round(v2)
			a3, ok3 = f16Round(v3)
			if !(ok0 && ok1 && ok2 && ok3) {
				a0, a1, a2, a3 = f16Quantize(v0), f16Quantize(v1), f16Quantize(v2), f16Quantize(v3)
			}
			j++
			if j == chain {
				out[0], out[1], out[2], out[3] = a0, a1, a2, a3
				return
			}
			if (si == len(steps) || steps[si] != j) && sameBits(a0, p0[j]) &&
				sameBits(a1, p1[j]) && sameBits(a2, p2[j]) && sameBits(a3, p3[j]) {
				break
			}
		}
	}
	out[0], out[1], out[2], out[3] = p0[chain], p1[chain], p2[chain], p3[chain]
}

// replayFx accumulates with fxGrid.acc (the sum of two grid values is exact,
// so only saturation can fire); changed-tap products pay the full rounding
// of fxGrid.quant. It is the fallback of closedFx: saturation is how a
// fixed-point lane re-converges, so it keeps the re-convergence skip.
func replayFx(out *[chainLanes]float64, fx *fxGrid, prefix, prods, qw []float64, ps, ds, last int, steps []int, xs []float64, chain int) {
	p0, p1, p2, p3 := laneRows(prefix, ps, last, chain+1)
	d0, d1, d2, d3 := laneRows(prods, ds, last, chain)
	w0, w1, w2, w3 := laneRows(qw, chain, last, chain)
	si := 0
	for si < len(steps) {
		j := steps[si]
		a0, a1, a2, a3 := p0[j], p1[j], p2[j], p3[j]
		for {
			q0, q1, q2, q3 := d0[j], d1[j], d2[j], d3[j]
			if si < len(steps) && steps[si] == j {
				x := xs[si]
				si++
				q0 = fx.quant(w0[j] * x)
				q1 = fx.quant(w1[j] * x)
				q2 = fx.quant(w2[j] * x)
				q3 = fx.quant(w3[j] * x)
			}
			a0 = fx.acc(a0 + q0)
			a1 = fx.acc(a1 + q1)
			a2 = fx.acc(a2 + q2)
			a3 = fx.acc(a3 + q3)
			j++
			if j == chain {
				out[0], out[1], out[2], out[3] = a0, a1, a2, a3
				return
			}
			if (si == len(steps) || steps[si] != j) && sameBits(a0, p0[j]) &&
				sameBits(a1, p1[j]) && sameBits(a2, p2[j]) && sameBits(a3, p3[j]) {
				break
			}
		}
	}
	out[0], out[1], out[2], out[3] = p0[chain], p1[chain], p2[chain], p3[chain]
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
