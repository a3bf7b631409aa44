// Site-draw evaluation for systolic campaigns: instead of drawing an
// independent (site, bit) pair per injection, a site-mode campaign draws
// one array site per DType.Width() injections and evaluates every bit
// position of the struck latch word. The dataflow's resident latch and
// the pipeline register corrupt many MACs, so every bit replays through
// the campaign's usual effect expansion and the two site modes run
// literally the same code. The dataflow's single-read latches
// (Geometry.planeTarget — act-reg and psum-reg under weight-stationary,
// plus or minus the weight/act registers under the other dataflows) are
// single-MAC upsets — the datapath case — so EvalSiteBitPlane evaluates
// all bits of such a site in one bit-parallel chain replay
// (layers.PlaneForwarder), psum-reg behind the analytical ReLU
// sign-domain pre-screen, while EvalSiteScalar replays the chain once
// per bit as the bit-identity oracle.
package systolic

import (
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
)

// runShardPhaseSites is runShardPhase for the site-draw evaluation modes:
// the phase's N injections are covered by engine.DrawUnits(N, SiteBits)
// site draws, the shard strides over draw units, and each unit expands
// into nbits injections tallied in ascending bit order. Site draws
// consume the unit's PRNG values once — per-bit evaluation is
// deterministic — so the scalar and bit-plane modes share one draw
// sequence.
func (c *Campaign) runShardPhaseSites(shard, of int, opt Options, ph engine.Phase) *Report {
	rng := rand.New(rand.NewSource(opt.Seed + int64(shard)*seedMul + ph.SeedSalt))
	inj, golden := c.newShard()
	width := c.DType.Width()
	r := &Report{}
	if ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), width, inj.stratumWeights(width, 1), false)
	}
	units := engine.DrawUnits(ph.N, ph.SiteBits)
	for u := shard; u < units; u += of {
		nbits := ph.SiteBits
		if rem := ph.N - u*ph.SiteBits; rem < nbits {
			nbits = rem
		}
		g := golden((ph.InputBase + u) % len(c.Inputs))
		pos := -1
		if ph.Table != nil {
			pos, _ = ph.Table.Stratum(u)
		}
		c.runSiteUnit(rng, inj, opt, g, pos, nbits, r)
	}
	return r
}

// tallySite folds one injection outcome of a site unit into the report —
// the same tally sequence as the per-bit path. faulty is nil only for
// analytically pre-screened injections, which exist only when no detector
// is configured.
func (c *Campaign) tallySite(r *Report, opt Options, pos int, s Site, bit int, outcome sdc.Outcome, faulty *network.Execution) {
	r.Counts.Add(outcome)
	r.PerLatch[s.Latch].Add(outcome)
	if r.Strata != nil {
		r.Strata.Counts[pos*c.DType.Width()+bit].Add(outcome)
	}
	if opt.Detector != nil {
		r.Detection.Tally(outcome.Hit[sdc.SDC1], opt.Detector(faulty))
	}
}

// runSiteUnit draws one array site (without a bit) and evaluates every
// bit position of the struck latch word. pos forces the MAC-layer stratum
// (the main phase of a stratified campaign); pos < 0 draws it exactly as
// the uniform per-bit model does. The site draw consumes the PRNG in the
// per-bit model's order minus the trailing bit draw: layer position,
// latch, chain step, output column, stream position.
func (c *Campaign) runSiteUnit(rng *rand.Rand, inj *injector, opt Options, g *network.Execution, pos, nbits int, r *Report) {
	s, pos := inj.draw(rng, pos, 0, 1)
	geo := inj.geos[pos]

	if opt.Eval == engine.EvalSiteBitPlane {
		if target, ok := geo.planeTarget(s.Latch); ok {
			c.runPlaneSite(inj, opt, g, pos, s, target, nbits, r)
			return
		}
	}

	// Multi-MAC latches (and the scalar oracle mode): replay the effect
	// expansion once per bit.
	archMasked := geo.PipeMasked(s)
	for bit := 0; bit < nbits; bit++ {
		s.Bit = bit
		faulty := inj.execute(g, pos, s)
		if archMasked {
			r.ArchMasked++
		}
		c.tallySite(r, opt, pos, s, bit, sdc.Classify(inj.net, g, faulty), faulty)
	}
}

// runPlaneSite evaluates every bit of one single-MAC site — an operand
// or accumulator flip at one (output, stream position, chain step),
// whichever latches the dataflow makes single-read (Geometry.planeTarget)
// — through one bit-parallel chain replay, then propagates each
// surviving bit through the shared sparse path. Psum-reg sites
// additionally run the analytical ReLU sign-domain pre-screen: a bit-b
// accumulator flip perturbs the chain output by at most
// 2^(bit−FractionBits) (fixed-point accumulation is exact-then-saturate
// and saturation is 1-Lipschitz), so when golden plus that bound is ≤ 0
// both outputs fall in the next ReLU's clamp domain and the fault
// provably dies. Operand flips perturb a product, not the accumulator,
// so no such bound applies and every bit is replayed.
func (c *Campaign) runPlaneSite(inj *injector, opt Options, g *network.Execution, pos int, s Site, target layers.Target, nbits int, r *Report) {
	net := inj.net
	dt := c.DType
	li := inj.macLayers[pos]
	geo := inj.geos[pos]
	oi := s.Out*geo.P + s.P

	batch := net.NewInjectionBatch(dt, g, li, nbits)
	gv := g.Acts[li].Data[oi]
	// maskedOut is the classification every masked injection shares: a
	// masked faulty execution's downstream tensors alias golden, so
	// classifying golden against itself is the same pure computation.
	maskedOut := sdc.Classify(net, g, g)

	// ReLU sign-domain pre-screen (psum-reg, fixed point only; detector
	// campaigns need the real execution, so they skip it).
	var rk uint64
	if s.Latch == LatchPsum && opt.Detector == nil && !dt.IsFloat() &&
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
	live := full &^ rk
	var vals [64]float64
	if live != 0 {
		pf := layers.PlaneFault{OutputIndex: oi, MACStep: s.K, Target: target, Bits: live}
		if gg := batch.ForwardPlane(&pf, &vals); math.Float64bits(gg) != math.Float64bits(gv) {
			panic("systolic: plane replay diverged from the golden execution")
		}
	}

	for bit := 0; bit < nbits; bit++ {
		s.Bit = bit
		if rk&(uint64(1)<<uint(bit)) != 0 {
			r.PreMasked++
			c.tallySite(r, opt, pos, s, bit, maskedOut, nil)
			continue
		}
		fv := vals[bit]
		if opt.Detector != nil {
			faulty := batch.Propagate(oi, fv)
			c.tallySite(r, opt, pos, s, bit, sdc.Classify(net, g, faulty), faulty)
			continue
		}
		exec, masked := batch.PropagateShared(oi, fv)
		outcome := maskedOut
		if !masked {
			outcome = sdc.Classify(net, g, exec)
		}
		c.tallySite(r, opt, pos, s, bit, outcome, exec)
	}
}
