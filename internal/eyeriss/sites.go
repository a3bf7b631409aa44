// Site-draw evaluation for buffer campaigns: instead of drawing an
// independent (site, bit) pair per injection, a site-mode campaign draws
// one buffer site per DType.Width() injections and evaluates every bit
// position of the stored word at that site. For the reuse-window buffers
// (Global Buffer, Filter SRAM, Img REG) a flipped word corrupts many MACs,
// so every bit is replayed through the class's usual injection model and
// the two site modes run literally the same code. PSum REG faults are
// single accumulator upsets — the datapath case — so EvalSiteBitPlane
// evaluates all bits of a PSum site in one bit-parallel chain replay
// behind the analytical ReLU sign-domain pre-screen (engine.EvalPlaneSite),
// while EvalSiteScalar replays the chain once per bit as the bit-identity
// oracle.
package eyeriss

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
// deterministic — so the scalar and bit-plane modes share one draw sequence.
func (c *Campaign) runShardPhaseSites(shard, of int, b Buffer, opt Options, ph engine.Phase) *Report {
	rng := ph.Rand(opt.Seed, shard, seedMul)
	inj, golden := c.newShard(opt)
	r := inj.newReport(b, ph)
	ph.EachUnit(shard, of, len(c.Inputs), func(_, input, pos, nbits int) {
		c.runSiteUnit(rng, inj, b, opt, golden(input), pos, nbits, r)
	})
	return r
}

// tallySite folds one injection outcome into the report, on the per-bit
// and the site paths alike. faulty is nil only for analytically
// pre-screened injections, which exist only when no detector is configured.
func (c *Campaign) tallySite(r *Report, opt Options, s site, outcome sdc.Outcome, faulty *network.Execution) {
	r.Counts.Add(outcome)
	if r.Strata != nil {
		r.Strata.Counts[s.pos*c.DType.Width()+s.bit].Add(outcome)
	}
	if opt.Detector != nil {
		r.Detection.Tally(outcome.Hit[sdc.SDC1], opt.Detector(faulty))
	}
}

// runSiteUnit draws one buffer site (without a bit) and evaluates every
// bit position of the word at that site through the class's evaluator — the
// same one the per-bit model ends in. pos forces the MAC-layer stratum (the
// main phase of a stratified campaign); pos < 0 draws it exactly as the
// class's uniform model does.
func (c *Campaign) runSiteUnit(rng *rand.Rand, inj *injector, b Buffer, opt Options, g *network.Execution, pos, nbits int, r *Report) {
	s := inj.draw(rng, b, g, pos, 0)
	if b == PSumReg && opt.Eval == engine.EvalSiteBitPlane {
		// A PSum REG fault is a single accumulator upset — the one buffer
		// class with a single-MAC fault model, the datapath's case.
		f := layers.PlaneFault{OutputIndex: s.word, MACStep: s.step, Target: layers.TargetAccum}
		engine.EvalPlaneSite(inj.net, c.DType, g, s.li, f, nbits, opt.Detector != nil,
			func(bit int, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
				if pre {
					r.PreMasked++
				}
				s.bit = bit
				c.tallySite(r, opt, s, outcome, faulty)
			})
		return
	}
	for s.bit = 0; s.bit < nbits; s.bit++ {
		faulty := inj.eval(b, g, s, 1)
		c.tallySite(r, opt, s, sdc.Classify(inj.net, g, faulty), faulty)
	}
}
