// Campaign adapter: the dataflow-parameterized array as an engine.Surface.
// The shared engine owns shard fan-out, stratified pilot→Neyman phase
// sequencing, allocation tables and the canonical merge association; this
// file supplies the per-injection execution and the report algebra.
//
// Injection draws live in site space — (MAC layer, latch, chain step,
// output column, stream position, bit) — the image of the uniform
// physical-address distribution restricted to occupied sites, which
// Geometry.Encode maps back to physical coordinates bijectively. The
// campaign path does not run the cycle-level simulator per injection;
// it expands each fault into its corruption front — per-MAC latch faults,
// one for the local latches, a downstream or stream-suffix set for the
// moving-operand latches — which the network evaluates chain by chain
// (network.ForwardFront) and the package's tests prove bit-identical to
// Sim.Run.
package systolic

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/fit"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// Report aggregates a systolic-array fault campaign.
type Report struct {
	Counts sdc.Counts
	// PerLatch breaks Counts down by the struck latch class, in Latch
	// order: weight, act-reg, psum-reg, pipeline-reg.
	PerLatch [NumLatches]sdc.Counts
	// Detection tallies the optional symptom detector.
	Detection engine.Detection
	// ArchMasked counts pipeline-register faults whose corrupted east
	// output left the array unconsumed (fault at a column tile's east
	// edge) — architecturally masked with no MAC touched. Still tallied
	// in Counts (and Strata) as masked outcomes.
	ArchMasked int `json:",omitempty"`
	// PreMasked counts injections the bit-plane site mode's analytical
	// pre-screen proved masked without any replay (psum-reg sites whose
	// accumulator perturbation provably dies in the next ReLU's clamp
	// domain). Zero outside EvalSiteBitPlane.
	PreMasked int `json:",omitempty"`
	// Strata carries the per-(MAC layer, bit) tallies and population
	// weights of a stratified campaign; nil for uniform campaigns.
	Strata *engine.StrataSummary `json:",omitempty"`
}

// Merge folds r2 into r. Every field merges commutatively; distributed
// campaigns merge shard reports in shard order anyway, mirroring the
// other surfaces' contract.
func (r *Report) Merge(r2 *Report) {
	r.Counts.Merge(r2.Counts)
	for l := range r.PerLatch {
		r.PerLatch[l].Merge(r2.PerLatch[l])
	}
	r.Detection.Merge(r2.Detection)
	r.ArchMasked += r2.ArchMasked
	r.PreMasked += r2.PreMasked
	r.Strata = engine.MergeStrata(r.Strata, r2.Strata)
}

// SDCEstimate returns the campaign's estimate of the uniform-design SDC
// probability for criterion k with its 95% CI half-width — reweighted
// when the campaign stratified, the raw pooled proportion otherwise.
func (r *Report) SDCEstimate(k sdc.Kind) (p, ci95 float64) {
	return engine.SDCEstimate(r.Counts, r.Strata, k)
}

// MergeReports folds per-shard reports — indexed and merged in shard
// order — into one campaign report. Nil entries (skipped shards) are
// ignored; the result is nil when every entry is nil.
func MergeReports(rs []*Report) *Report {
	var total *Report
	for _, r := range rs {
		if r == nil {
			continue
		}
		if total == nil {
			total = &Report{}
		}
		total.Merge(r)
	}
	return total
}

// Options configures a systolic-array campaign: the shared engine's
// options, whose strata are keyed by (MAC layer, flipped base bit). Under
// the site-draw evaluation modes one array site is drawn per DType.Width()
// injections and every bit of the struck latch word is evaluated;
// EvalSiteBitPlane evaluates the single-MAC latches (act-reg, psum-reg)
// through one bit-parallel chain replay, psum-reg behind the analytical
// ReLU pre-screen.
type Options = engine.Options

// Campaign injects systolic-array faults into a network. The network is
// shared by every slot and only ever read, so a Campaign is safe for
// concurrent shard calls; the array schedules are derived and validated
// once, on the first.
type Campaign struct {
	// Net is the network under injection.
	Net *network.Network
	// DType is the datapath word format.
	DType numeric.Type
	// Inputs are the inference inputs to cycle through.
	Inputs []*tensor.Tensor
	// Array is the physical PE array size; DefaultParams when zero.
	Array Params
	// Flow is the array's dataflow; the zero value is weight-stationary.
	Flow Dataflow
	// GoldenFn, when non-nil, resolves the golden execution of input i
	// instead of computing it per campaign: compute runs the fault-free
	// forward pass, and implementations return its result or a previously
	// computed, bit-identical one — the same hook, and the same process-wide
	// cache behind it, as faultinj.Campaign.GoldenFn. Either way the
	// campaign resolves each input once, not once per shard and phase
	// (network.GoldenMemo).
	GoldenFn func(i int, compute func() *network.Execution) *network.Execution

	goldens network.GoldenMemo
	// derived guards the one-time derivation of sched; invalid keeps its
	// panic value so every later call fails the same way.
	derived sync.Once
	sched   *schedule
	invalid any
}

// surface adapts the campaign to the shared engine's Surface interface.
type surface struct {
	c   *Campaign
	opt Options
}

func (s surface) Width() int                             { return s.c.DType.Width() }
func (s surface) NewReport() *Report                     { return &Report{} }
func (s surface) Merge(dst, src *Report)                 { dst.Merge(src) }
func (s surface) Strata(r *Report) *engine.StrataSummary { return r.Strata }
func (s surface) RunPhase(shard, of int, ph engine.Phase) *Report {
	return s.c.runShardPhase(shard, of, s.opt, ph)
}

// Surface binds the campaign to the shared engine: its Surface adapter and
// the engine options it runs under — what engine.Run, engine.NewPlan and
// engine.RunSlot take.
func (c *Campaign) Surface(opt Options) (engine.Surface[*Report], engine.Options) {
	c.schedule()
	return surface{c, opt}, opt
}

// Run injects opt.N faults and tallies SDC outcomes (engine.Run): the slots
// of the campaign's engine.Plan at S = opt.Workers shards, run on goroutines
// and folded in the plan's association — the reference a distributed run of
// the same plan is bit-identical to.
func (c *Campaign) Run(opt Options) *Report {
	s, eo := c.Surface(opt)
	return engine.Run(s, eo)
}

// schedule returns the network's array schedules, deriving them on first
// use, and fails fast on a malformed campaign before any shard runs.
func (c *Campaign) schedule() *schedule {
	if len(c.Inputs) == 0 {
		panic("systolic: campaign needs at least one input")
	}
	if c.Flow < 0 || c.Flow >= NumDataflows {
		panic(fmt.Sprintf("systolic: unknown dataflow %d", int(c.Flow)))
	}
	c.derived.Do(func() {
		defer func() { c.invalid = recover() }()
		c.Net.EnableQuantCache()
		c.sched = newSchedule(c.Net, c.DType, c.Array, c.Flow)
	})
	if c.invalid != nil {
		panic(c.invalid)
	}
	return c.sched
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 3_141_593

// newShard builds the injector one shard phase executes on: the campaign's
// schedules with the phase's upset width.
func (c *Campaign) newShard(opt Options) *injector {
	return &injector{schedule: c.schedule(), mbu: opt.UpsetWidth()}
}

// golden returns the golden execution of input i, resolved once for the
// campaign's lifetime (network.GoldenMemo).
func (c *Campaign) golden(i int) *network.Execution {
	return c.goldens.Golden(c.Net, c.DType, c.Inputs, i, c.GoldenFn)
}

// runShardPhase executes one phase of one shard — the per-unit execution
// the engine's orchestration calls back into, serially, with a private PRNG
// stream. Each draw unit (engine.Phase.Each) draws one array site and
// evaluates it at the unit's bits in ascending order: the one bit of a
// per-bit injection, every bit of the struck latch word under a site mode.
// The draw consumes the unit's PRNG values once and evaluation is
// deterministic, so the two site modes share one draw sequence. The
// dataflow's resident latch and the pipeline register corrupt many MACs, so
// every bit replays through the effect expansion (execute); its single-read
// latches (Geometry.planeTarget) are single-MAC upsets — the datapath's
// case — so EvalSiteBitPlane evaluates all bits of such a site through the
// bit-plane evaluator every single-MAC surface shares
// (engine.EvalPlaneSite), with EvalSiteScalar's per-bit replays as its
// bit-identity oracle.
func (c *Campaign) runShardPhase(shard, of int, opt Options, ph engine.Phase) *Report {
	rng := ph.Rand(opt.Seed, shard, seedMul)
	inj := c.newShard(opt)
	r := inj.newReport(ph)
	plane := opt.Eval == engine.EvalSiteBitPlane
	ph.Each(shard, of, len(c.Inputs), func(u engine.Unit) {
		g := c.golden(u.Input)
		s, pos := inj.draw(rng, u.Block, u.Bit)
		geo := inj.geos[pos]
		if target, ok := geo.planeTarget(s.Latch); plane && ok {
			li := inj.macLayers[pos]
			f := layers.PlaneFault{OutputIndex: s.Out*geo.P + s.P, MACStep: s.K, Target: target}
			batch := inj.net.NewInjectionBatch(c.DType, g, li, u.NBits)
			engine.EvalPlaneSite(inj.net, c.DType, g, li, batch, f, u.NBits, 0, opt.Detector != nil,
				func(bit int, _ float64, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
					if pre {
						r.PreMasked++
					}
					s.Bit = bit
					c.tallySite(r, opt, pos, s, outcome, faulty)
				})
			return
		}
		// A pipe fault at a tile's east edge has an empty front at every bit.
		archMasked := geo.PipeMasked(s)
		for end := s.Bit + u.NBits; s.Bit < end; s.Bit++ {
			faulty := inj.execute(g, pos, s)
			if archMasked {
				r.ArchMasked++
			}
			c.tallySite(r, opt, pos, s, sdc.Classify(inj.net, g, faulty), faulty)
		}
	})
	return r
}

// tallySite folds one injection outcome at site s (its Bit the flipped base
// bit) into the report. faulty is nil only for analytically pre-screened
// injections, which exist only when no detector is configured.
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

// newReport allocates a phase report, with the strata grid when the phase
// records strata.
func (inj *injector) newReport(ph engine.Phase) *Report {
	r := &Report{}
	if ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), inj.dt.Width(), inj.res.StratumWeights(inj.mbu), false)
	}
	return r
}

// schedule is what fault placement needs of a campaign's network, derived
// once per Campaign and read-only afterwards.
type schedule struct {
	net *network.Network
	dt  numeric.Type
	// macLayers are the CONV/FC layer indices; geos their array
	// schedules; res places a random-in-time upset among them — by MAC
	// count, proportional to array occupancy time — and draws the base bit
	// of its span.
	macLayers []int
	geos      []Geometry
	res       *engine.Residency
}

// injector is one shard phase's view of the schedule.
type injector struct {
	*schedule
	// mbu is the upset width (≥ 1) every drawn site carries.
	mbu int
}

func newSchedule(net *network.Network, dt numeric.Type, par Params, flow Dataflow) *schedule {
	sch := &schedule{net: net, dt: dt}
	var weights []float64
	shape := net.InShape
	for i, l := range net.Layers {
		if geo, ok := LayerGeometry(l, shape, par, flow); ok {
			sch.macLayers = append(sch.macLayers, i)
			sch.geos = append(sch.geos, geo)
			weights = append(weights, float64(l.MACs(shape)))
		}
		shape = l.OutShape(shape)
	}
	sch.res = engine.NewResidency(weights, nil, dt.Width())
	return sch
}

// draw draws one fault site and its MAC-layer position. pos and bit force
// the stratum coordinate when non-negative — the main phase of a stratified
// campaign, or a whole-word draw unit, which starts at bit 0 — and consume
// no randomness then. Draw order: layer position
// (one float), latch, chain step, output column, stream position, base bit.
func (inj *injector) draw(rng *rand.Rand, pos, bit int) (Site, int) {
	if pos < 0 {
		pos = inj.res.Pick(rng)
	}
	geo := inj.geos[pos]
	s := Site{
		Latch: Latch(rng.Intn(int(NumLatches))),
		K:     rng.Intn(geo.K),
		Out:   rng.Intn(geo.Outs),
		P:     rng.Intn(geo.P),
		Width: inj.mbu,
	}
	s.Bit = inj.res.DrawBit(rng, bit, inj.mbu)
	return s, pos
}

// execute expands a site into its corruption front under the geometry's
// dataflow (Geometry.effects — the corruption-front table in dataflow.go,
// proven bit-identical to the cycle-level simulator by the package's tests)
// and runs the faulty inference. The empty front (the architecturally
// masked pipeline fault) and a front whose every chain lands back on golden
// both come out as the Masked execution aliasing golden.
func (inj *injector) execute(g *network.Execution, pos int, s Site) *network.Execution {
	target, elems := inj.geos[pos].effects(s)
	front := make([]layers.Fault, len(elems))
	for i, oi := range elems {
		front[i] = layers.Fault{OutputIndex: oi, MACStep: s.K, Target: target, Bit: s.Bit, Width: s.Width}
	}
	return inj.net.ForwardFront(inj.dt, g, inj.macLayers[pos], front)
}

// LatchBits returns the exposed latch-bit count of the array under a
// format — NumLatches registers per PE at the word width, the S_component
// term of the paper's Eq. 1 for this surface.
func LatchBits(par Params, dt numeric.Type) int64 {
	par = par.withDefaults()
	return int64(par.Rows) * int64(par.Cols) * int64(NumLatches) * int64(dt.Width())
}

// FITComponent assembles the Eq. 1 term for the array's latch plane.
func FITComponent(bits int64, sdcProb float64) fit.Component {
	return fit.Component{Name: "systolic array", Bits: bits, SDCProb: sdcProb}
}
