// Evaluating a drawn site. The per-bit design — the paper's — draws an
// independent (site, bit) pair per injection; a site-draw campaign draws one
// latch site per draw unit and evaluates every bit position of the format
// at that site. EvalSiteScalar replays the faulted accumulation chain once
// per bit (the reference); EvalSiteBitPlane replays it once per site,
// carrying one accumulator lane per bit (layers.PlaneForwarder), with an
// analytical pre-screen that proves bits masked — and tallies them exactly —
// without any replay. The two modes share the same PRNG stream and draw
// sequence and produce bit-identical reports; the bit-plane mode is the
// fast path, the scalar mode its exactness oracle.
package faultinj

import (
	"math"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// runUnitScalar evaluates one drawn site bit-by-bit, one scalar chain replay
// per injection (a dense re-execution when there is no batch): the whole of
// the per-bit design, and under a site mode the bit-identity oracle for
// runUnitPlane.
func (c *Campaign) runUnitScalar(batch *network.InjectionBatch, golden *network.Execution, d drawnSite, opt Options, valueBudget int, results []injResult) {
	block := c.profile.BlockOfSite(d.site)
	gv := golden.Acts[d.site.Layer].Data[d.site.Fault.OutputIndex]
	for i := 0; i < d.nbits; i++ {
		fault := d.site.Fault // copy; Applied is per-run state
		fault.Bit += i
		var faulty *network.Execution
		if batch == nil {
			faulty = c.Net.ForwardFromDense(c.DType, golden, d.site.Layer, &fault)
		} else {
			faulty = batch.Run(&fault)
		}
		if !fault.Applied {
			panic("faultinj: selected fault site was not exercised: " + d.site.String())
		}
		res := injResult{
			masked: faulty.Masked,
			block:  block,
			bit:    fault.Bit,
			target: fault.Target,
		}
		res.outcome = sdc.Classify(c.Net, golden, faulty)
		pos := d.injBase + i
		if pos < valueBudget {
			res.hasValue = true
			res.value = ValueRecord{
				Golden: gv,
				Faulty: faulty.Acts[d.site.Layer].Data[fault.OutputIndex],
				SDC:    res.outcome.Hit[sdc.SDC1],
			}
		}
		if opt.TrackSpread {
			res.spread = c.finalBlockSpread(golden, faulty)
		}
		if opt.Detector != nil {
			res.det = opt.Detector(faulty)
		}
		results[pos] = res
	}
}

// runUnitPlane evaluates one drawn site through the bit-parallel path:
// an analytical pre-screen classifies provably-masked bits without replay,
// one plane replay produces the faulty chain outputs of all remaining bits
// at once, and each surviving bit propagates downstream through the shared
// sparse path. Every per-injection result is bit-identical to
// runUnitScalar's.
func (c *Campaign) runUnitPlane(batch *network.InjectionBatch, golden *network.Execution, d drawnSite, opt Options, maskedOut sdc.Outcome, valueBudget int, results []injResult) {
	block := c.profile.BlockOfSite(d.site)
	oi := d.site.Fault.OutputIndex
	step := d.site.Fault.MACStep
	target := d.site.Fault.Target
	gv := golden.Acts[d.site.Layer].Data[oi]

	full := ^uint64(0)
	if d.nbits < 64 {
		full = uint64(1)<<uint(d.nbits) - 1
	}

	pm, rk := c.prescreenMasks(batch, d, gv, opt.Detector != nil, valueBudget)

	// Distinct bits of one site frequently collapse to the same faulty
	// chain value (saturation clamps, overflow to infinity, shared rounding
	// absorption), and everything downstream of the faulted element —
	// classification, masking, spread, detector verdict — is a pure function
	// of (site, faulty value). Evaluate each distinct value once and reuse
	// the result for its duplicates; bit-identical by construction.
	type siteResult struct {
		fv      uint64
		masked  bool
		det     bool
		outcome sdc.Outcome
		spread  float64
	}
	var seen []siteResult

	// One chain replay covers every bit the pre-screen could not prove.
	live := full &^ pm &^ rk
	var vals [64]float64
	if live != 0 {
		pf := layers.PlaneFault{OutputIndex: oi, MACStep: step, Target: target, Bits: live}
		if g := batch.ForwardPlane(&pf, &vals); math.Float64bits(g) != math.Float64bits(gv) {
			panic("faultinj: plane replay diverged from the golden execution: " + d.site.String())
		}
	}

	for b := 0; b < d.nbits; b++ {
		bit := uint64(1) << uint(b)
		pos := d.injBase + b
		res := injResult{block: block, bit: b, target: target}
		switch {
		case pm&bit != 0:
			// Chain output bit-identical to golden: the scalar path would
			// take propagateElement's first branch and alias every tensor.
			res.masked = true
			res.outcome = maskedOut
			if pos < valueBudget {
				res.hasValue = true
				res.value = ValueRecord{Golden: gv, Faulty: gv, SDC: maskedOut.Hit[sdc.SDC1]}
			}
			if opt.Detector != nil {
				res.det = opt.Detector(batch.Propagate(oi, gv))
			}
		case rk&bit != 0:
			// Proven masked analytically; spread is exactly 0 and no value
			// or detector read exists (both gated off above).
			res.masked = true
			res.pre = true
			res.outcome = maskedOut
		default:
			fv := vals[b]
			fvBits := math.Float64bits(fv)
			cached := -1
			for s := range seen {
				if seen[s].fv == fvBits {
					cached = s
					break
				}
			}
			if cached >= 0 {
				m := &seen[cached]
				res.masked = m.masked
				res.outcome = m.outcome
				res.spread = m.spread
				res.det = m.det
			} else if opt.Detector != nil {
				// Detectors inspect the faulty execution, so masked runs
				// still need their (golden-aliased) tensors materialized.
				faulty := batch.Propagate(oi, fv)
				res.masked = faulty.Masked
				res.outcome = sdc.Classify(c.Net, golden, faulty)
				if opt.TrackSpread {
					res.spread = c.finalBlockSpread(golden, faulty)
				}
				res.det = opt.Detector(faulty)
			} else {
				exec, masked := batch.PropagateShared(oi, fv)
				if masked {
					res.masked = true
					res.outcome = maskedOut
				} else {
					res.outcome = sdc.Classify(c.Net, golden, exec)
					if opt.TrackSpread {
						res.spread = c.finalBlockSpread(golden, exec)
					}
				}
			}
			if cached < 0 {
				seen = append(seen, siteResult{
					fv: fvBits, masked: res.masked, det: res.det,
					outcome: res.outcome, spread: res.spread,
				})
			}
			if pos < valueBudget {
				// The faulted element of the scalar path's execution holds
				// the recomputed chain value whether or not the fault
				// masked downstream.
				res.hasValue = true
				res.value = ValueRecord{Golden: gv, Faulty: fv, SDC: res.outcome.Hit[sdc.SDC1]}
			}
		}
		results[pos] = res
	}
}

// prescreenMasks runs the analytical masking pre-screen for one drawn site
// and returns two disjoint bit masks of provably-masked flips:
//
// pm — product identity (operand and product latches): the flipped step
// product is bit-identical to the clean one (the flip fell below the
// quantization floor, was absorbed by saturation, or the operand multiplies
// a zero), so the faulted chain — and hence the whole run — is bit-identical
// to golden. Exact by construction: the compare runs on the exact per-bit
// products macFaulty would feed the chain.
//
// rk — ReLU sign-domain kill (fixed point only): fixed-point accumulation
// is exact-then-saturate, and saturation is 1-Lipschitz, so the faulty
// chain output can differ from golden by at most the fault's step
// perturbation Δ (|p′−p| for product-type flips, exactly
// 2^(bit−FractionBits) for accumulator flips). If the next layer is a ReLU
// and golden+Δ ≤ 0, both the golden and the faulty chain outputs are
// provably in the clamp domain: the ReLU emits bit-identical zeros and the
// fault is masked — counted exactly, with no replay. Floating-point formats
// get no such bound (a flip can overshoot any Δ), detector campaigns need
// the real execution, and value-sampled injections need the real faulty
// value, so those cases are left for simulation.
func (c *Campaign) prescreenMasks(batch *network.InjectionBatch, d drawnSite, gv float64, detector bool, valueBudget int) (pm, rk uint64) {
	oi := d.site.Fault.OutputIndex
	step := d.site.Fault.MACStep
	target := d.site.Fault.Target
	dt := c.DType

	var prods [64]float64
	var cleanP float64
	if target != layers.TargetAccum {
		w, x := batch.StepOperands(oi, step)
		cleanP = dt.Mul(w, x)
		dt.FlipProducts(layers.FlipOperand(target), w, x, &prods)
		cb := math.Float64bits(cleanP)
		for b := 0; b < d.nbits; b++ {
			if math.Float64bits(prods[b]) == cb {
				pm |= uint64(1) << uint(b)
			}
		}
	}

	if !detector && !dt.IsFloat() &&
		d.site.Layer+1 < len(c.Net.Layers) && c.Net.Layers[d.site.Layer+1].Kind() == layers.ReLU {
		for b := 0; b < d.nbits; b++ {
			bit := uint64(1) << uint(b)
			if pm&bit != 0 || d.injBase+b < valueBudget {
				continue
			}
			var delta float64
			if target == layers.TargetAccum {
				delta = dt.FxFlipMagnitude(b)
			} else {
				delta = math.Abs(prods[b] - cleanP)
			}
			if gv+delta <= 0 {
				rk |= bit
			}
		}
	}
	return pm, rk
}

// finalBlockSpread is the Table 5 metric of one faulty execution: the
// fraction of final-block ACT elements that differ bit-wise from golden.
func (c *Campaign) finalBlockSpread(golden, faulty *network.Execution) float64 {
	gActs := c.Net.BlockActs(golden)
	fActs := c.Net.BlockActs(faulty)
	last := len(gActs) - 1
	mismatch := tensor.BitwiseMismatch(gActs[last], fActs[last])
	return float64(mismatch) / float64(gActs[last].Shape.Elems())
}
