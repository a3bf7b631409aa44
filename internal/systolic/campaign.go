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
// it expands each fault into its per-MAC effects (one for the local
// latches, a downstream or stream-suffix set for the moving-operand
// latches) and replays only the corrupted accumulation chains, which the
// package's tests prove bit-identical to Sim.Run.
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

// Campaign injects systolic-array faults into a network. Build must
// return a fresh network instance per worker.
type Campaign struct {
	// Build constructs the network; it must be deterministic.
	Build func() *network.Network
	// DType is the datapath word format.
	DType numeric.Type
	// Inputs are the inference inputs to cycle through.
	Inputs []*tensor.Tensor
	// Array is the physical PE array size; DefaultParams when zero.
	Array Params
	// Flow is the array's dataflow; the zero value is weight-stationary.
	Flow Dataflow
	// Residency, when non-nil, gives per-MAC-layer probabilities for
	// where a random-in-time upset lands. When nil, layers are weighted
	// by MAC count (proportional to their array occupancy time).
	Residency []float64
	// GoldenFn, when non-nil, resolves the golden execution of input i
	// instead of computing it per campaign: compute runs the fault-free
	// forward pass, and implementations return its result or a previously
	// computed, bit-identical one — the same hook, and the same process-wide
	// cache behind it, as faultinj.Campaign.GoldenFn. When nil the campaign
	// memoizes its goldens privately, so either way a forward pass runs once
	// per input, not once per shard and phase.
	GoldenFn func(i int, compute func() *network.Execution) *network.Execution

	goldens network.GoldenMemo
	// checked guards the one-time geometry validation; invalid keeps its
	// panic value so every later call fails the same way.
	checked sync.Once
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
	c.validate()
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

// validate fails fast on a malformed campaign before any shard runs. The
// geometry check needs a network instance, so it runs once per Campaign
// rather than once per shard call.
func (c *Campaign) validate() {
	if len(c.Inputs) == 0 {
		panic("systolic: campaign needs at least one input")
	}
	if c.Flow < 0 || c.Flow >= NumDataflows {
		panic(fmt.Sprintf("systolic: unknown dataflow %d", int(c.Flow)))
	}
	c.checked.Do(func() {
		defer func() { c.invalid = recover() }()
		newInjector(c.Build(), c.DType, c.Array, c.Flow, c.Residency, 1)
	})
	if c.invalid != nil {
		panic(c.invalid)
	}
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 3_141_593

// newShard builds the private state one shard phase executes on: its own
// network instance with the quantized-parameter cache on, the injector
// over it, and the shard's golden lookup (the campaign's GoldenFn or
// private memo; see network.GoldenMemo.Resolver).
func (c *Campaign) newShard(opt Options) (*injector, func(i int) *network.Execution) {
	net := c.Build()
	net.EnableQuantCache()
	inj := newInjector(net, c.DType, c.Array, c.Flow, c.Residency, opt.UpsetWidth())
	return inj, c.goldens.Resolver(c.GoldenFn, c.DType, func(i int) *network.Execution {
		return net.Forward(c.DType, c.Inputs[i])
	})
}

// runShardPhase executes one phase of one shard — the per-injection
// execution the engine's orchestration calls back into, serially, on a
// private network instance with a private PRNG stream.
func (c *Campaign) runShardPhase(shard, of int, opt Options, ph engine.Phase) *Report {
	if ph.SiteBits > 0 {
		return c.runShardPhaseSites(shard, of, opt, ph)
	}
	rng := ph.Rand(opt.Seed, shard, seedMul)
	inj, golden := c.newShard(opt)
	r := inj.newReport(ph)
	ph.EachInjection(shard, of, len(c.Inputs), func(_, input, pos, bit int) {
		g := golden(input)
		s, pos := inj.draw(rng, pos, bit)
		faulty := inj.execute(g, pos, s)
		if faulty.Masked && inj.geos[pos].PipeMasked(s) {
			r.ArchMasked++
		}
		c.tallySite(r, opt, pos, s, sdc.Classify(inj.net, g, faulty), faulty)
	})
	return r
}

// newReport allocates a phase report, with the strata grid when the phase
// records strata.
func (inj *injector) newReport(ph engine.Phase) *Report {
	r := &Report{}
	if ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), inj.dt.Width(), inj.res.StratumWeights(), false)
	}
	return r
}

// injector holds the per-worker geometry for fault placement.
type injector struct {
	net *network.Network
	dt  numeric.Type
	// macLayers are the CONV/FC layer indices; geos their array
	// schedules; res places a random-in-time upset among them and draws the
	// base bit of its span.
	macLayers []int
	geos      []Geometry
	res       *engine.Residency
	// mbu is the upset width (≥ 1) every drawn site carries.
	mbu int
}

func newInjector(net *network.Network, dt numeric.Type, par Params, flow Dataflow, residency []float64, mbu int) *injector {
	inj := &injector{net: net, dt: dt, mbu: mbu}
	var weights []float64
	shape := net.InShape
	for i, l := range net.Layers {
		if geo, ok := LayerGeometry(l, shape, par, flow); ok {
			inj.macLayers = append(inj.macLayers, i)
			inj.geos = append(inj.geos, geo)
			weights = append(weights, float64(l.MACs(shape)))
		}
		shape = l.OutShape(shape)
	}
	inj.res = engine.NewResidency(weights, residency, dt.Width(), mbu)
	return inj
}

// draw draws one fault site and its MAC-layer position. pos and bit force
// the stratum coordinate when non-negative — the main phase of a stratified
// campaign, or the site-draw modes, which evaluate every bit of a site and
// so draw none — and consume no randomness then. Draw order: layer position
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
	s.Bit = inj.res.DrawBit(rng, bit)
	return s, pos
}

// faultOp is the per-MAC effect kind a latch fault expands into.
type faultOp int

const (
	// opWeight flips the weight operand of chain step K.
	opWeight faultOp = iota
	// opAct flips the activation operand of chain step K.
	opAct
	// opAccum flips the accumulator after chain step K's MAC.
	opAccum
)

// target maps the effect kind onto the layers package's latch target.
func (op faultOp) target() layers.Target {
	switch op {
	case opWeight:
		return layers.TargetWeight
	case opAct:
		return layers.TargetInput
	case opAccum:
		return layers.TargetAccum
	}
	panic("systolic: unknown fault op")
}

// execute expands a site into its per-MAC effects under the geometry's
// dataflow (Geometry.effects — the corruption-front table in
// dataflow.go, proven bit-identical to the cycle-level simulator by the
// package's tests) and runs the faulty inference.
func (inj *injector) execute(g *network.Execution, pos int, s Site) *network.Execution {
	li := inj.macLayers[pos]
	geo := inj.geos[pos]
	op, elems := geo.effects(s)
	return inj.apply(g, li, geo, s, op, elems)
}

// apply runs the faulty inference for an effect set. A single-MAC
// single-bit effect takes the network's incremental fault-injection path;
// everything else — every multi-element corruption front and every MBU —
// replays each corrupted chain, diffs it against the golden activation and
// hands the changed set to the network's delta propagation. The empty
// effect set (the architecturally masked pipeline fault) and a front whose
// every replay lands back on golden both come out as the Masked execution
// aliasing golden.
func (inj *injector) apply(g *network.Execution, li int, geo Geometry, s Site, op faultOp, elems []int) *network.Execution {
	if len(elems) == 1 && s.Width == 1 {
		f := &layers.Fault{OutputIndex: elems[0], MACStep: s.K, Target: op.target(), Bit: s.Bit}
		return inj.net.ForwardFrom(inj.dt, g, li, f)
	}
	in := g.LayerInput(li)
	golden := g.Acts[li]
	act := golden
	var changed []int
	for _, oi := range elems {
		act, changed = network.PatchAct(golden, act, changed, oi, inj.chainEval(li, in, oi, s, op))
	}
	return inj.net.ForwardWithAct(inj.dt, g, li, act, changed)
}

// chainEval recomputes one output element's accumulation chain with the
// site's flip applied at step s.K — bit-identical to the layers package's
// ForwardElement with the corresponding Fault for Width 1 (quantization
// is idempotent, so flipping the pre-quantized operand equals macFaulty's
// flip-then-multiply), and the MBU generalization for Width > 1.
func (inj *injector) chainEval(li int, in *tensor.Tensor, oi int, s Site, op faultOp) float64 {
	dt := inj.dt
	quant, mac := dt.QuantFunc(), dt.MACFunc()
	step := func(acc, w, x float64, k int) float64 {
		if k == s.K {
			switch op {
			case opWeight:
				w = flipBits(dt, w, s.Bit, s.Width)
			case opAct:
				x = flipBits(dt, x, s.Bit, s.Width)
			}
		}
		acc = mac(acc, w, x)
		if op == opAccum && k == s.K {
			acc = flipBits(dt, acc, s.Bit, s.Width)
		}
		return acc
	}
	switch l := inj.net.Layers[li].(type) {
	case *layers.ConvLayer:
		os := l.OutShape(in.Shape)
		plane := os.H * os.W
		khkw := l.KH * l.KW
		oc, oh, ow := oi/plane, (oi%plane)/os.W, oi%os.W
		acc := quant(l.Bias[oc])
		for k := 0; k < l.MACChainLen(); k++ {
			ic, kh, kw := k/khkw, (k/l.KW)%l.KH, k%l.KW
			ih, iw := oh*l.Stride+kh-l.Pad, ow*l.Stride+kw-l.Pad
			var x float64
			if ih >= 0 && ih < in.Shape.H && iw >= 0 && iw < in.Shape.W {
				x = quant(in.At(ic, ih, iw))
			}
			acc = step(acc, quant(l.Weights[l.WeightIndex(oc, ic, kh, kw)]), x, k)
		}
		return acc
	case *layers.FCLayer:
		acc := quant(l.Bias[oi])
		for k := 0; k < l.In; k++ {
			acc = step(acc, quant(l.Weights[oi*l.In+k]), quant(in.Data[k]), k)
		}
		return acc
	}
	panic("systolic: faulted layer is not a MAC layer")
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
