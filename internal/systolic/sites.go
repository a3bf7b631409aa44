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
// all bits of such a site in one bit-parallel chain replay, psum-reg
// behind the analytical ReLU sign-domain pre-screen
// (engine.EvalPlaneSite), while EvalSiteScalar replays the chain once
// per bit as the bit-identity oracle.
package systolic

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
)

// runShardPhaseSites is runShardPhase for the site-draw evaluation modes:
// the shard strides over site draw units (engine.Phase.EachUnit) and each
// unit expands into nbits injections tallied in ascending bit order. Site
// draws consume the unit's PRNG values once — per-bit evaluation is
// deterministic — so the scalar and bit-plane modes share one draw
// sequence.
func (c *Campaign) runShardPhaseSites(shard, of int, opt Options, ph engine.Phase) *Report {
	rng := ph.Rand(opt.Seed, shard, seedMul)
	inj, golden := c.newShard(opt)
	r := inj.newReport(ph)
	ph.EachUnit(shard, of, len(c.Inputs), func(_, input, pos, nbits int) {
		c.runSiteUnit(rng, inj, opt, golden(input), pos, nbits, r)
	})
	return r
}

// tallySite folds one injection outcome at site s (its Bit the flipped base
// bit) into the report, on the per-bit and the site paths alike. faulty is
// nil only for analytically pre-screened injections, which exist only when
// no detector is configured.
func (c *Campaign) tallySite(r *Report, opt Options, pos int, s Site, outcome sdc.Outcome, faulty *network.Execution) {
	r.Counts.Add(outcome)
	r.PerLatch[s.Latch].Add(outcome)
	if r.Strata != nil {
		r.Strata.Counts[pos*c.DType.Width()+s.Bit].Add(outcome)
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
	s, pos := inj.draw(rng, pos, 0)
	geo := inj.geos[pos]

	if opt.Eval == engine.EvalSiteBitPlane {
		// A single-read latch is a single-MAC upset — an operand or
		// accumulator flip at one (output, stream position, chain step).
		if target, ok := geo.planeTarget(s.Latch); ok {
			f := layers.PlaneFault{OutputIndex: s.Out*geo.P + s.P, MACStep: s.K, Target: target}
			engine.EvalPlaneSite(inj.net, c.DType, g, inj.macLayers[pos], f, nbits, opt.Detector != nil,
				func(bit int, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
					if pre {
						r.PreMasked++
					}
					s.Bit = bit
					c.tallySite(r, opt, pos, s, outcome, faulty)
				})
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
		c.tallySite(r, opt, pos, s, sdc.Classify(inj.net, g, faulty), faulty)
	}
}
