package engine

import (
	"math"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// EvalPlaneSite evaluates the nbits single-bit upsets — bit 0 upward — of
// one single-MAC fault site the EvalSiteBitPlane way. The site is f's
// latch at chain step f.MACStep of output element f.OutputIndex of layer
// li (f.Bits is ignored): one bit-parallel chain replay
// (layers.PlaneForwarder) covers every bit, and each bit's faulty chain
// value then propagates through the shared sparse path. Accumulator sites
// first pass the analytical ReLU sign-domain pre-screen: fixed-point
// accumulation is exact-then-saturate and saturation is 1-Lipschitz, so a
// bit-b accumulator flip moves the chain output by at most
// 2^(b−FractionBits); when golden plus that bound is ≤ 0 both outputs fall
// in the next ReLU's clamp domain, the ReLU emits bit-identical zeros and
// the fault provably dies without a replay. Operand flips perturb a
// product, not the accumulator, and floats can overshoot any bound, so
// those are always replayed; so is everything when needExec is set
// (detector campaigns inspect the real execution).
//
// tally is called once per bit in ascending order. pre marks a
// pre-screened bit, whose faulty execution is nil. The outcomes are
// bit-identical to replaying the chain once per bit (EvalSiteScalar): the
// plane kernel reproduces every scalar chain value exactly.
func EvalPlaneSite(net *network.Network, dt numeric.Type, g *network.Execution, li int, f layers.PlaneFault, nbits int, needExec bool,
	tally func(bit int, outcome sdc.Outcome, faulty *network.Execution, pre bool)) {
	batch := net.NewInjectionBatch(dt, g, li, nbits)
	oi := f.OutputIndex
	gv := g.Acts[li].Data[oi]
	// maskedOut is the classification every masked injection shares: a
	// masked faulty execution's downstream tensors alias golden, so
	// classifying golden against itself is the same pure computation.
	maskedOut := sdc.Classify(net, g, g)

	var rk uint64
	if f.Target == layers.TargetAccum && !needExec && !dt.IsFloat() &&
		li+1 < len(net.Layers) && net.Layers[li+1].Kind() == layers.ReLU {
		for bit := 0; bit < nbits; bit++ {
			if gv+dt.FxFlipMagnitude(bit) <= 0 {
				rk |= uint64(1) << uint(bit)
			}
		}
	}

	full := ^uint64(0)
	if nbits < 64 {
		full = uint64(1)<<uint(nbits) - 1
	}
	var vals [64]float64
	if f.Bits = full &^ rk; f.Bits != 0 {
		if gg := batch.ForwardPlane(&f, &vals); math.Float64bits(gg) != math.Float64bits(gv) {
			panic("engine: plane replay diverged from the golden execution")
		}
	}

	for bit := 0; bit < nbits; bit++ {
		if rk&(uint64(1)<<uint(bit)) != 0 {
			tally(bit, maskedOut, nil, true)
			continue
		}
		if needExec {
			faulty := batch.Propagate(oi, vals[bit])
			tally(bit, sdc.Classify(net, g, faulty), faulty, false)
			continue
		}
		exec, masked := batch.PropagateShared(oi, vals[bit])
		outcome := maskedOut
		if !masked {
			outcome = sdc.Classify(net, g, exec)
		}
		tally(bit, outcome, exec, false)
	}
}
