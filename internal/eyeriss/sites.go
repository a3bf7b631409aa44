// Site-draw evaluation for buffer campaigns: instead of drawing an
// independent (site, bit) pair per injection, a site-mode campaign draws
// one buffer site per DType.Width() injections and evaluates every bit
// position of the stored word at that site. For the reuse-window buffers
// (Global Buffer, Filter SRAM, Img REG) a flipped word corrupts many MACs,
// so every bit is replayed through the class's usual injection model and
// the two site modes run literally the same code. PSum REG faults are
// single accumulator upsets — the datapath case — so EvalSiteBitPlane
// evaluates all bits of a PSum site in one bit-parallel chain replay
// (layers.PlaneForwarder) behind the analytical ReLU sign-domain
// pre-screen, while EvalSiteScalar replays the chain once per bit as the
// bit-identity oracle.
package eyeriss

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
// into nbits injections tallied in ascending bit order. Site draws consume
// the unit's PRNG values once — per-bit evaluation is deterministic — so
// the scalar and bit-plane modes share one draw sequence.
func (c *Campaign) runShardPhaseSites(shard, of int, b Buffer, opt Options, ph engine.Phase) *Report {
	rng := rand.New(rand.NewSource(opt.Seed + int64(shard)*7_654_321 + ph.SeedSalt))
	inj, golden := c.newShard(opt)
	width := c.DType.Width()
	r := &Report{}
	if ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), width, inj.stratumWeights(b, width), false)
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
		c.runSiteUnit(rng, inj, b, opt, g, pos, nbits, r)
	}
	return r
}

// tallySite folds one injection outcome of a site unit into the report —
// the same tally sequence as the per-bit path. faulty is nil only for
// analytically pre-screened injections, which exist only when no detector
// is configured.
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
		c.runPSumPlane(inj, opt, g, s, nbits, r)
		return
	}
	for s.bit = 0; s.bit < nbits; s.bit++ {
		faulty := inj.eval(b, g, s, 1)
		c.tallySite(r, opt, s, sdc.Classify(inj.net, g, faulty), faulty)
	}
}

// runPSumPlane evaluates every bit of one PSum REG site — a single
// accumulator upset, the one buffer class with a single-MAC fault model —
// the EvalSiteBitPlane way: the analytical pre-screen and one bit-parallel
// replay for the surviving bits, each then propagated through the shared
// sparse path. It is bit-identical to EvalSiteScalar's per-bit chain replay
// (runSiteUnit's loop): the plane kernel reproduces every scalar chain
// value exactly, and a pre-screened bit's fault provably never escapes the
// next ReLU (fixed-point accumulation is exact-then-saturate and saturation
// is 1-Lipschitz, so the faulty chain output differs from golden by at most
// 2^(bit−FractionBits); when golden plus that bound is ≤ 0 both outputs
// fall in the clamp domain and the ReLU emits bit-identical zeros).
func (c *Campaign) runPSumPlane(inj *injector, opt Options, g *network.Execution, s site, nbits int, r *Report) {
	net := inj.net
	dt := c.DType
	li, outIdx, macStep := s.li, s.word, s.step

	batch := net.NewInjectionBatch(dt, g, li, nbits)
	gv := g.Acts[li].Data[outIdx]
	// maskedOut is the classification every masked injection shares: a
	// masked faulty execution's downstream tensors alias golden, so
	// classifying golden against itself is the same pure computation.
	maskedOut := sdc.Classify(net, g, g)

	// ReLU sign-domain pre-screen (fixed point only; detector campaigns
	// need the real execution, so they skip it).
	var rk uint64
	if opt.Detector == nil && !dt.IsFloat() &&
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
		pf := layers.PlaneFault{OutputIndex: outIdx, MACStep: macStep, Target: layers.TargetAccum, Bits: live}
		if gg := batch.ForwardPlane(&pf, &vals); math.Float64bits(gg) != math.Float64bits(gv) {
			panic("eyeriss: plane replay diverged from the golden execution")
		}
	}

	for s.bit = 0; s.bit < nbits; s.bit++ {
		if rk&(uint64(1)<<uint(s.bit)) != 0 {
			r.PreMasked++
			c.tallySite(r, opt, s, maskedOut, nil)
			continue
		}
		fv := vals[s.bit]
		if opt.Detector != nil {
			faulty := batch.Propagate(outIdx, fv)
			c.tallySite(r, opt, s, sdc.Classify(net, g, faulty), faulty)
			continue
		}
		exec, masked := batch.PropagateShared(outIdx, fv)
		outcome := maskedOut
		if !masked {
			outcome = sdc.Classify(net, g, exec)
		}
		c.tallySite(r, opt, s, outcome, exec)
	}
}
