package engine

import (
	"math"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// EvalPlaneSite evaluates the nbits single-bit upsets — bit 0 upward — of
// one single-MAC fault site the EvalSiteBitPlane way, on every surface: a
// datapath latch, an Eyeriss PSum register, a systolic array's act, weight
// or psum register. The site is f's latch at chain step f.MACStep of output
// element f.OutputIndex of layer li under golden execution g (f.Bits is
// ignored); batch is the caller's InjectionBatch over (g, li), which may
// serve many sites, and sc the slot scratch every propagation runs on.
//
// The analytical screen (see screen) proves bits masked without a replay;
// one bit-parallel chain replay (layers.PlaneForwarder) covers the rest,
// and each distinct faulty chain value then propagates once through the
// shared sparse path. Distinct bits often collapse onto one value
// (saturation clamps, overflow to infinity, shared rounding absorption),
// and everything downstream of the faulted element is a pure function of
// it. exact marks the bits whose faulty value the caller reads (value
// samples), which the ReLU kill must leave to the replay; needExec — a
// detector inspects every faulty execution — makes every bit exact and
// hands each one a real execution.
//
// tally is called once per bit in ascending order with the bit's faulty
// chain value fv, its outcome, its faulty execution — nil when the fault is
// masked and !needExec, sc's otherwise and valid until tally returns — and
// pre, set when the ReLU kill proved the bit masked: no replay ran, so fv is
// golden's. Everything but pre is bit-identical to replaying the chain once
// per bit (EvalSiteScalar).
func EvalPlaneSite(net *network.Network, dt numeric.Type, g *network.Execution, li int, batch *network.InjectionBatch, sc *network.SlotScratch, f layers.PlaneFault, nbits int, exact uint64, needExec bool,
	tally func(bit int, fv float64, outcome sdc.Outcome, faulty *network.Execution, pre bool)) {
	oi := f.OutputIndex
	gv := g.Acts[li].Data[oi]
	// maskedOut is the classification every masked injection shares: a
	// masked faulty execution's downstream tensors alias golden, so
	// classifying golden against itself is the same pure computation.
	maskedOut := sdc.Classify(net, g, g)

	full := ^uint64(0)
	if nbits < 64 {
		full = uint64(1)<<uint(nbits) - 1
	}
	if needExec {
		exact = full
	}
	same, kill := screen(net, dt, li, batch, f, nbits, gv, exact)
	var vals [64]float64
	if f.Bits = full &^ same &^ kill; f.Bits != 0 {
		pv, gg := batch.ForwardPlane(f)
		if math.Float64bits(gg) != math.Float64bits(gv) {
			panic("engine: plane replay diverged from the golden execution")
		}
		vals = *pv
	}

	// seen caches one propagation per distinct faulty value. Only the
	// scratch's latest propagation (seen[live]) is still in memory, so a
	// hit on an older one that needs its execution propagates again — the
	// same pure function of fv, so the same outcome and activations.
	type propagated struct {
		fv      uint64
		outcome sdc.Outcome
		faulty  *network.Execution
	}
	seen := make([]propagated, 0, 64)
	live := -1
	for bit := 0; bit < nbits; bit++ {
		b := uint64(1) << uint(bit)
		if kill&b != 0 {
			tally(bit, gv, maskedOut, nil, true)
			continue
		}
		if same&b != 0 {
			vals[bit] = gv
		}
		fv := vals[bit]
		k := 0
		for k < len(seen) && seen[k].fv != math.Float64bits(fv) {
			k++
		}
		if k == len(seen) || (seen[k].faulty != nil && k != live) {
			p := propagated{fv: math.Float64bits(fv), outcome: maskedOut}
			if exec := sc.Propagate(g, li, oi, fv); needExec || !exec.Masked {
				p.faulty, p.outcome = exec, sdc.Classify(net, g, exec)
			}
			if k == len(seen) {
				seen = append(seen, p)
			} else {
				seen[k] = p
			}
			live = k
		}
		p := seen[k]
		tally(bit, fv, p.outcome, p.faulty, false)
	}
}

// screen is EvalPlaneSite's analytical pre-screen over the first nbits bits
// of site f, whose golden chain output is gv. It returns two disjoint masks
// of provably masked flips:
//
// same — product identity (operand and product latches): the flipped step
// product is bit-identical to the clean one (the flip fell below the
// quantization floor, was absorbed by saturation, or the operand multiplies
// a zero), so the faulted chain, hence the whole run, is golden. Exact by
// construction: it compares the very products the plane replay would feed
// the chain.
//
// kill — ReLU sign-domain kill (fixed point only, bits outside exact and
// same): fixed-point accumulation is exact-then-saturate and saturation is
// 1-Lipschitz, so the faulty chain output differs from golden by at most
// the step perturbation Δ — |p′−p| for an operand or product flip,
// 2^(bit−FractionBits) for an accumulator flip. If layer li feeds a ReLU
// and gv+Δ ≤ 0, both outputs fall in its clamp domain and it emits
// bit-identical zeros. Floats can overshoot any Δ, so they get no kill.
func screen(net *network.Network, dt numeric.Type, li int, batch *network.InjectionBatch, f layers.PlaneFault, nbits int, gv float64, exact uint64) (same, kill uint64) {
	var prods [64]float64
	var clean float64
	if f.Target != layers.TargetAccum {
		w, x := batch.StepOperands(f.OutputIndex, f.MACStep)
		clean = dt.Mul(w, x)
		dt.FlipProducts(layers.FlipOperand(f.Target), w, x, &prods)
		for bit := 0; bit < nbits; bit++ {
			if math.Float64bits(prods[bit]) == math.Float64bits(clean) {
				same |= uint64(1) << uint(bit)
			}
		}
	}
	if dt.IsFloat() || li+1 >= len(net.Layers) || net.Layers[li+1].Kind() != layers.ReLU {
		return same, 0
	}
	for bit := 0; bit < nbits; bit++ {
		b := uint64(1) << uint(bit)
		if (same|exact)&b != 0 {
			continue
		}
		delta := math.Abs(prods[bit] - clean)
		if f.Target == layers.TargetAccum {
			delta = dt.FxFlipMagnitude(bit)
		}
		if gv+delta <= 0 {
			kill |= b
		}
	}
	return same, kill
}
