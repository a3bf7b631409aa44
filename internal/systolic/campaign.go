// Campaign adapter: the dataflow-parameterized array as an engine.Surface.
// The shared engine owns shard fan-out, stratified pilot→Neyman phase
// sequencing, the slot loop, allocation tables and the canonical merge
// association; this file supplies the fault model and the report algebra.
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

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
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

// Merge folds r2 into r; the zero report is its two-sided identity. Every
// field merges commutatively; distributed campaigns merge shard reports in
// shard order anyway (engine.MergeAll), mirroring the other surfaces'
// contract.
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

// Options configures a systolic-array campaign: the shared engine's
// options, whose strata are keyed by (MAC layer, flipped base bit). Under
// the site-draw evaluation modes one array site is drawn per DType.Width()
// injections and every bit of the struck latch word is evaluated;
// EvalSiteBitPlane evaluates the single-MAC latches (act-reg, psum-reg)
// through one bit-parallel chain replay, psum-reg behind the analytical
// ReLU pre-screen.
type Options = engine.Options

// Campaign injects systolic-array faults into a network (engine.Campaign).
// The network is shared by every slot and only ever read, so a Campaign is
// safe for concurrent shard calls; the array schedules are derived and
// validated once, on the first.
type Campaign struct {
	engine.Campaign
	// Array is the physical PE array size; DefaultParams when zero.
	Array Params
	// Flow is the array's dataflow; the zero value is weight-stationary.
	Flow Dataflow

	sched *schedule
}

// surface adapts the campaign to the shared engine's Surface interface:
// report algebra and the per-slot fault model (injector).
type surface struct {
	c   *Campaign
	opt Options
}

func (s surface) Campaign() *engine.Campaign             { return &s.c.Campaign }
func (s surface) Strata(r *Report) *engine.StrataSummary { return r.Strata }
func (s surface) Model(ph engine.Phase, _ int) engine.Model[*Report] {
	inj := s.c.newShard(s.opt)
	inj.surface, inj.ph = s, ph
	return inj
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
// use, and fails fast on a malformed campaign before any shard runs
// (engine.Campaign.Prepare): missing inputs or an unknown dataflow.
func (c *Campaign) schedule() *schedule {
	c.Prepare(func() {
		if c.Flow < 0 || c.Flow >= NumDataflows {
			panic(fmt.Sprintf("systolic: unknown dataflow %d", int(c.Flow)))
		}
		c.Net.EnableQuantCache()
		c.sched = newSchedule(c.Net, c.DType, c.Array, c.Flow)
	})
	return c.sched
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 3_141_593

// newShard builds the injector one slot executes on: the campaign's
// schedules with the campaign's upset width.
func (c *Campaign) newShard(opt Options) *injector {
	return &injector{schedule: c.schedule(), mbu: opt.UpsetWidth()}
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

// injector is one slot's array fault model (engine.Model): the schedule and
// the unit it drew last. The dataflow's resident latch and the pipeline
// register corrupt many MACs, so every bit runs through the effect
// expansion (execute); its single-read latches (Geometry.planeTarget) are
// single-MAC upsets — the datapath's case — which EvalSiteBitPlane replays
// bit-parallel.
type injector struct {
	*schedule
	surface
	ph engine.Phase
	// mbu is the upset width (≥ 1) every drawn site carries.
	mbu int
	// g, s and pos are the unit drawn last: its golden execution, site and
	// MAC-layer position; archMasked marks a pipe fault at a tile's east
	// edge, whose front is empty at every bit.
	g          *network.Execution
	s          Site
	pos        int
	archMasked bool
	// elems and front are the reused storage of the corruption front Eval
	// evaluates.
	elems []int
	front []layers.Fault
}

func (inj *injector) SeedMul() int64 { return seedMul }
func (inj *injector) Values() int    { return 0 }

func (inj *injector) Report() *Report {
	r := &Report{}
	if inj.ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), inj.dt.Width(), inj.res.StratumWeights(inj.mbu), false)
	}
	return r
}

func (inj *injector) Draw(rng *rand.Rand, g *network.Execution, u engine.Unit) int {
	inj.s, inj.pos = inj.draw(rng, u.Block, u.Bit)
	inj.g, inj.archMasked = g, inj.geos[inj.pos].PipeMasked(inj.s)
	return inj.s.Bit
}

func (inj *injector) Single() (int, layers.PlaneFault, bool) {
	geo := inj.geos[inj.pos]
	target, ok := geo.planeTarget(inj.s.Latch)
	return inj.macLayers[inj.pos], layers.PlaneFault{OutputIndex: inj.s.Out*geo.P + inj.s.P, MACStep: inj.s.K, Target: target}, ok
}

func (inj *injector) Eval(sc *network.SlotScratch, bit int) *network.Execution {
	s := inj.s
	s.Bit = bit
	return inj.execute(sc, inj.g, inj.pos, s)
}

func (inj *injector) Tally(r *Report, in engine.Injection) {
	r.Counts.Add(in.Outcome)
	r.PerLatch[inj.s.Latch].Add(in.Outcome)
	if inj.archMasked {
		r.ArchMasked++
	}
	if in.Pre {
		r.PreMasked++
	}
	if r.Strata != nil {
		r.Strata.Counts[inj.pos*inj.dt.Width()+in.Bit].Add(in.Outcome)
	}
	if inj.opt.Detector != nil {
		r.Detection.Tally(in.Outcome.Hit[sdc.SDC1], inj.opt.Detector(in.Faulty))
	}
}

// StratumWeights returns the stratum weights of a campaign on net with
// dataflow flow under an mbu-bit upset: its DefaultParams schedule's grid.
func StratumWeights(net *network.Network, dt numeric.Type, flow Dataflow, mbu int) engine.HexFloats {
	return newSchedule(net, dt, DefaultParams, flow).res.StratumWeights(mbu)
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
func (inj *injector) execute(sc *network.SlotScratch, g *network.Execution, pos int, s Site) *network.Execution {
	var target layers.Target
	target, inj.elems = inj.geos[pos].effects(inj.elems[:0], s)
	front := inj.front[:0]
	for _, oi := range inj.elems {
		front = append(front, layers.Fault{OutputIndex: oi, MACStep: s.K, Target: target, Bit: s.Bit, Width: s.Width})
	}
	inj.front = front
	return sc.ForwardFront(g, inj.macLayers[pos], front)
}

// LatchBits returns the exposed latch-bit count of the array under a
// format — NumLatches registers per PE at the word width, the S_component
// term of the paper's Eq. 1 for this surface.
func LatchBits(par Params, dt numeric.Type) int64 {
	par = par.withDefaults()
	return int64(par.Rows) * int64(par.Cols) * int64(NumLatches) * int64(dt.Width())
}
