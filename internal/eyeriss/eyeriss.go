// Package eyeriss models the buffer hierarchy of the Eyeriss accelerator
// (Chen et al., ISCA'16) as the paper's §5.2 case study: the shared Global
// Buffer plus the per-PE Filter SRAM, Img REG and PSum REG that implement
// Eyeriss's row-stationary dataflow and its three data reuses (weight,
// image and output reuse, Table 1).
//
// The crucial difference from datapath faults is reuse: a flipped bit in a
// buffer is read many times before it is evicted, so one upset spreads to
// many MACs (§2.2). Each buffer's injection model reproduces its reuse
// window:
//
//	Global Buffer — holds a whole layer's ifmap for the layer's duration;
//	                a fault corrupts one ifmap word for every consumer.
//	Filter SRAM  — caches filter weights reused across the entire fmap;
//	                a fault corrupts one weight for the whole layer.
//	Img REG      — caches one ifmap row; a fault corrupts one ifmap word
//	                for the single output row computed from that register.
//	PSum REG     — holds one partial sum consumed by the next accumulate;
//	                a fault is a single accumulator upset.
package eyeriss

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/fit"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// Params are the microarchitectural parameters of Table 7.
type Params struct {
	// FeatureSize labels the process node.
	FeatureSize string
	// NumPEs is the processing-engine count.
	NumPEs int
	// Sizes are in kilobytes (1024 bytes), as published.
	GlobalBufferKB float64
	FilterSRAMKB   float64 // per PE
	ImgRegKB       float64 // per PE
	PSumRegKB      float64 // per PE
}

// Params65nm is the original Eyeriss design point (Table 7).
var Params65nm = Params{
	FeatureSize:    "65nm",
	NumPEs:         168,
	GlobalBufferKB: 98,
	FilterSRAMKB:   0.344,
	ImgRegKB:       0.02,
	PSumRegKB:      0.05,
}

// Params16nm is the paper's 16 nm projection (Table 7): PE count and
// buffer sizes scaled by 8 across the four technology generations between
// 65 nm and 16 nm.
var Params16nm = Params{
	FeatureSize:    "16nm",
	NumPEs:         1344,
	GlobalBufferKB: 784,
	FilterSRAMKB:   3.52,
	ImgRegKB:       0.19,
	PSumRegKB:      0.38,
}

// Scale projects parameters by a per-generation factor over the given
// number of technology generations, as §5.2 does (factor 2, 4 generations
// between 65 nm and 16 nm would be the naive reading; the published table
// uses an overall factor of 8 for both the PE count and the buffer sizes).
func Scale(p Params, factor float64, label string) Params {
	return Params{
		FeatureSize:    label,
		NumPEs:         int(float64(p.NumPEs) * factor),
		GlobalBufferKB: p.GlobalBufferKB * factor,
		FilterSRAMKB:   p.FilterSRAMKB * factor,
		ImgRegKB:       p.ImgRegKB * factor,
		PSumRegKB:      p.PSumRegKB * factor,
	}
}

// Buffer identifies one buffer class of the hierarchy.
type Buffer int

const (
	// GlobalBuffer is the shared on-chip SRAM holding fmaps between layers.
	GlobalBuffer Buffer = iota
	// FilterSRAM is the per-PE weight scratchpad (weight reuse).
	FilterSRAM
	// ImgReg is the per-PE image row register (image reuse).
	ImgReg
	// PSumReg is the per-PE partial-sum register (output reuse).
	PSumReg
)

// Buffers lists the classes in Table 8 order.
var Buffers = []Buffer{GlobalBuffer, FilterSRAM, ImgReg, PSumReg}

// String names the buffer as in Table 8.
func (b Buffer) String() string {
	switch b {
	case GlobalBuffer:
		return "Global Buffer"
	case FilterSRAM:
		return "Filter SRAM"
	case ImgReg:
		return "Img REG"
	case PSumReg:
		return "PSum REG"
	}
	return fmt.Sprintf("eyeriss.Buffer(%d)", int(b))
}

// ComponentBits returns the Eq. 1 size term for a buffer class. Working
// the published Table 8 numbers backwards (FIT / SDC / Rraw) shows the
// paper sized the per-PE structures as 168 units of the 16 nm per-unit
// capacity; we match that arithmetic so the FIT columns are comparable.
func (p Params) ComponentBits(b Buffer) int64 {
	const bitsPerKB = 8 * 1024
	perPE := func(kb float64) int64 {
		return int64(kb*bitsPerKB) * int64(fitUnits)
	}
	switch b {
	case GlobalBuffer:
		return int64(p.GlobalBufferKB * bitsPerKB)
	case FilterSRAM:
		return perPE(p.FilterSRAMKB)
	case ImgReg:
		return perPE(p.ImgRegKB)
	case PSumReg:
		return perPE(p.PSumRegKB)
	}
	panic("eyeriss: unknown buffer")
}

// fitUnits is the per-PE unit count entering the FIT size term (see
// ComponentBits).
const fitUnits = 168

// Datapath returns the canonical datapath latch plane of this design
// point for the given format.
func (p Params) Datapath(dt numeric.Type) accel.Datapath {
	return accel.Datapath{NumPEs: p.NumPEs, DType: dt}
}

// Report aggregates a buffer-fault campaign.
type Report struct {
	Counts sdc.Counts
	// Detection tallies the optional symptom detector (§6.2).
	Detection engine.Detection
	// PreMasked counts injections the bit-plane site mode's analytical
	// pre-screen proved masked without any replay (PSum REG sites whose
	// accumulator perturbation provably dies in the next ReLU's clamp
	// domain). Those injections are still tallied in Counts (and Strata) as
	// masked outcomes; this is a diagnostic breakdown, zero outside
	// EvalSiteBitPlane.
	PreMasked int `json:",omitempty"`
	// Strata carries the per-(MAC layer, bit) tallies and population
	// weights of a stratified campaign; nil for uniform campaigns. When
	// present, Counts is a sample tally under the stratified design and
	// engine.SDCEstimate applies the reweighting that recovers the unbiased
	// uniform-design estimate.
	Strata *engine.StrataSummary `json:",omitempty"`
}

// Merge folds r2 into r; the zero report is its two-sided identity. Every
// field merges commutatively, but distributed campaigns merge shard reports
// in shard order anyway (engine.MergeAll), mirroring the datapath's
// contract.
func (r *Report) Merge(r2 *Report) {
	r.Counts.Merge(r2.Counts)
	r.Detection.Merge(r2.Detection)
	r.PreMasked += r2.PreMasked
	r.Strata = engine.MergeStrata(r.Strata, r2.Strata)
}

// Options configures a buffer campaign: the shared engine's options, whose
// strata are keyed by (MAC layer, flipped base bit) with weights from the
// buffer's residency model. Under the site-draw evaluation modes one buffer
// site is drawn per DType.Width() injections and every bit position of the
// word there is evaluated; EvalSiteBitPlane evaluates PSum REG sites through
// a single bit-parallel chain replay plus the analytical masking pre-screen
// (the other buffer classes corrupt whole reuse windows, so their site modes
// replay per bit either way).
type Options = engine.Options

// Campaign injects buffer faults into a network (engine.Campaign: Eyeriss
// uses a 16-bit fixed-point datapath, so Table 8 runs 16b_rb10). The network
// is shared by every slot and only ever read — each fault model hands the
// network a corrupted ifmap copy or a front of per-MAC faults, never a
// patched parameter — so a Campaign is safe for concurrent shard calls; the
// network geometry and Residency are derived and validated once, on the
// first. Goldens are shared read-only: no injection writes through to one.
type Campaign struct {
	engine.Campaign
	// Residency, when non-nil, gives per-MAC-layer probabilities for
	// where a random-in-time upset lands (e.g. the cycle weights of the
	// rowstat scheduler). When nil, layers are weighted by MAC count.
	Residency []float64

	geo *geometry
}

// surface adapts a (campaign, buffer class) pair to the shared engine's
// Surface interface: the engine owns all shard fan-out, phase sequencing,
// the slot loop, allocation-table construction and the canonical merge
// association, and calls back here for report algebra and the per-slot
// fault model (injector).
type surface struct {
	c   *Campaign
	b   Buffer
	opt Options
}

func (s surface) Campaign() *engine.Campaign             { return &s.c.Campaign }
func (s surface) Strata(r *Report) *engine.StrataSummary { return r.Strata }
func (s surface) Model(ph engine.Phase, _ int) engine.Model[*Report] {
	inj := s.c.newShard(s.opt)
	inj.surface, inj.ph = s, ph
	return inj
}

// Surface binds the (campaign, buffer class) pair to the shared engine: its
// Surface adapter and the engine options it runs under — what engine.Run,
// engine.NewPlan and engine.RunSlot take.
func (c *Campaign) Surface(b Buffer, opt Options) (engine.Surface[*Report], engine.Options) {
	c.geometry()
	return surface{c, b, opt}, opt
}

// Run injects opt.N faults into buffer class b and tallies SDC outcomes
// (engine.Run): the slots of the campaign's engine.Plan at S = opt.Workers
// shards, run on goroutines and folded in the plan's association — the
// reference a distributed run of the same plan is bit-identical to.
func (c *Campaign) Run(b Buffer, opt Options) *Report {
	s, eo := c.Surface(b, opt)
	return engine.Run(s, eo)
}

// geometry returns the campaign's fault-placement geometry, deriving it on
// first use, and fails fast on a malformed campaign before any shard runs
// (engine.Campaign.Prepare): missing inputs, or a residency vector that does
// not match the network's MAC layers.
func (c *Campaign) geometry() *geometry {
	c.Prepare(func() {
		c.Net.EnableQuantCache()
		c.geo = newGeometry(c.Net, c.DType, c.Residency)
	})
	return c.geo
}

// newShard builds the injector one slot executes on: the campaign's
// geometry with the campaign's upset width.
func (c *Campaign) newShard(opt Options) *injector {
	return &injector{geometry: c.geometry(), mbu: opt.UpsetWidth()}
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 7_654_321

// geometry is what fault placement needs of a campaign's network, derived
// once per Campaign and read-only afterwards.
type geometry struct {
	net *network.Network
	dt  numeric.Type
	// macLayers are the CONV/FC layer indices; res places a random-in-time
	// upset among them (MAC counts by default, scheduler cycle weights when
	// the campaign provides them) and draws the base bit of its span.
	macLayers []int
	res       *engine.Residency
	convOnly  []int // macLayers positions of the CONV layers (Img REG faults need row reuse)
}

// injector is one slot's fault model of buffer class b (engine.Model): the
// geometry, the slot's scratch and the unit it drew last. The reuse-window
// buffers (Global Buffer, Filter SRAM, Img REG) corrupt many MACs per
// flipped word, so every bit runs through the class's eval; a PSum REG
// fault is a single accumulator upset — the datapath's case — which
// EvalSiteBitPlane replays bit-parallel.
type injector struct {
	*geometry
	surface
	ph engine.Phase
	// mbu is the upset width (≥ 1): every injection flips mbu adjacent
	// bits of the struck word.
	mbu int
	// ifmaps holds a private patchable copy of each golden ifmap a Global
	// Buffer evaluation struck, keyed by the golden tensor: an evaluation
	// flips one word of it and restores it, so draws alternating inputs
	// and layers copy each ifmap once per slot.
	ifmaps map[*tensor.Tensor]*tensor.Tensor
	// g and s are the unit drawn last: its golden execution and site.
	g *network.Execution
	s site
	// faults is the reused storage of the per-MAC front Eval evaluates.
	faults []layers.Fault
}

func (inj *injector) SeedMul() int64 { return seedMul }
func (inj *injector) Values() int    { return 0 }

func (inj *injector) Report() *Report {
	r := &Report{}
	if inj.ph.Strata {
		r.Strata = engine.NewStrata(len(inj.macLayers), inj.dt.Width(), inj.stratumWeights(inj.b), false)
	}
	return r
}

func (inj *injector) Draw(rng *rand.Rand, g *network.Execution, u engine.Unit) int {
	inj.g, inj.s = g, inj.draw(rng, inj.b, g, u.Block, u.Bit)
	return inj.s.bit
}

func (inj *injector) Single() (int, layers.PlaneFault, bool) {
	return inj.s.li, layers.PlaneFault{OutputIndex: inj.s.word, MACStep: inj.s.step, Target: layers.TargetAccum}, inj.b == PSumReg
}

func (inj *injector) Eval(sc *network.SlotScratch, bit int) *network.Execution {
	s := inj.s
	s.bit = bit
	return inj.eval(sc, inj.b, inj.g, s, inj.mbu)
}

func (inj *injector) Tally(r *Report, in engine.Injection) {
	r.Counts.Add(in.Outcome)
	if in.Pre {
		r.PreMasked++
	}
	if r.Strata != nil {
		r.Strata.Counts[inj.s.pos*inj.dt.Width()+in.Bit].Add(in.Outcome)
	}
	if inj.opt.Detector != nil {
		r.Detection.Tally(in.Outcome.Hit[sdc.SDC1], inj.opt.Detector(in.Faulty))
	}
}

func newGeometry(net *network.Network, dt numeric.Type, residency []float64) *geometry {
	geo := &geometry{net: net, dt: dt}
	var weights []float64
	shape := net.InShape
	for i, l := range net.Layers {
		if m := l.MACs(shape); m > 0 {
			geo.macLayers = append(geo.macLayers, i)
			weights = append(weights, float64(m))
			if l.Kind() == layers.Conv {
				geo.convOnly = append(geo.convOnly, len(geo.macLayers)-1)
			}
		}
		shape = l.OutShape(shape)
	}
	geo.res = engine.NewResidency(weights, residency, dt.Width())
	return geo
}

// StratumWeights returns buffer class b's stratum weights on net, layers
// resident by MAC count (no Campaign.Residency), under an mbu-bit upset.
func StratumWeights(net *network.Network, dt numeric.Type, b Buffer, mbu int) engine.HexFloats {
	return (&injector{geometry: newGeometry(net, dt, nil), mbu: mbu}).stratumWeights(b)
}

// stratumWeights returns the (MAC layer, base bit) population
// probabilities of buffer class b's uniform injection design — the
// weights that make the stratified estimator unbiased for it: the residency
// sampler's for most buffers; Img REG faults only strike CONV layers (row
// reuse), uniformly, so FC strata carry zero weight there and are never
// allocated injections.
func (inj *injector) stratumWeights(b Buffer) engine.HexFloats {
	if b != ImgReg {
		return inj.res.StratumWeights(inj.mbu)
	}
	return engine.StratumGrid(len(inj.macLayers), inj.dt.Width(), inj.mbu, func(pos, valid int) float64 {
		if inj.net.Layers[inj.macLayers[pos]].Kind() != layers.Conv {
			return 0
		}
		return 1 / (float64(len(inj.convOnly)) * float64(valid))
	})
}

// macLayer is a CONV/FC layer as the buffer fault models see it.
type macLayer interface{ MACChainLen() int }

// site is one drawn buffer fault: where the upset lands in MAC layer li and
// which bit span it flips. Which fields matter depends on the class.
type site struct {
	pos, li int // MAC-layer position (the stratum row) and its layer index
	// word is the struck ifmap element (Global Buffer), stored weight
	// (Filter SRAM) or output element's partial sum (PSum REG).
	word int
	// step is the chain step after which a PSum REG upset strikes.
	step int
	// Img REG strikes ifmap word (ic, ih, iw) as cached for output row oh
	// of output channel oc — the register's single-row reuse window. oh is
	// negative when no output row's kernel window covers ih: an upset
	// nothing consumes.
	ic, ih, iw, oc, oh int
	// bit is the base bit of the flipped span (the stratum column).
	bit int
}

// draw draws one fault site of buffer class b. pos and bit force the
// stratum coordinate when non-negative — the main phase of a stratified
// campaign, or a whole-word draw unit, which starts at bit 0 — and consume
// no randomness then; within a stratum the site
// is drawn uniformly, matching the conditional distribution of a uniform
// draw that landed there. Each class's PRNG consumption order — layer
// position, site coordinates, bit (Img REG: between the ifmap word and the
// output row) — is unchanged since the first buffer engine, so campaigns
// stay bit-identical across versions.
func (inj *injector) draw(rng *rand.Rand, b Buffer, g *network.Execution, pos, bit int) site {
	if pos < 0 {
		if b == ImgReg {
			pos = inj.convOnly[rng.Intn(len(inj.convOnly))]
		} else {
			pos = inj.res.Pick(rng)
		}
	}
	s := site{pos: pos, li: inj.macLayers[pos], oh: -1}
	switch b {
	case GlobalBuffer:
		s.word = rng.Intn(len(g.LayerInput(s.li).Data))
		s.bit = inj.res.DrawBit(rng, bit, inj.mbu)
	case FilterSRAM:
		// One stored weight per (output channel, chain step).
		s.word = rng.Intn(g.Acts[s.li].Shape.C * inj.net.Layers[s.li].(macLayer).MACChainLen())
		s.bit = inj.res.DrawBit(rng, bit, inj.mbu)
	case ImgReg:
		conv, ok := inj.net.Layers[s.li].(*layers.ConvLayer)
		if !ok {
			panic(fmt.Sprintf("eyeriss: Img REG injection into non-CONV layer %d", s.li))
		}
		in, os := g.LayerInput(s.li), g.Acts[s.li].Shape
		s.ic = rng.Intn(in.Shape.C)
		s.ih = rng.Intn(in.Shape.H)
		s.iw = rng.Intn(in.Shape.W)
		s.bit = inj.res.DrawBit(rng, bit, inj.mbu)
		s.oc = rng.Intn(os.C)
		// Output rows whose kernel window covers input row ih:
		// oh*Stride - Pad <= ih < oh*Stride - Pad + KH.
		var rows []int
		for oh := 0; oh < os.H; oh++ {
			top := oh*conv.Stride - conv.Pad
			if s.ih >= top && s.ih < top+conv.KH {
				rows = append(rows, oh)
			}
		}
		if len(rows) > 0 {
			s.oh = rows[rng.Intn(len(rows))]
		}
	case PSumReg:
		s.word = rng.Intn(g.Acts[s.li].Shape.Elems())
		s.step = rng.Intn(inj.net.Layers[s.li].(macLayer).MACChainLen())
		s.bit = inj.res.DrawBit(rng, bit, inj.mbu)
	default:
		panic("eyeriss: unknown buffer")
	}
	return s
}

// eval runs the faulty inference of a drawn site with width adjacent bits
// flipped from s.bit. A changed ifmap word (Global Buffer) delta-steps
// through the struck layer itself; every other class is a front of per-MAC
// latch faults on the struck layer — the same corruption a datapath fault
// is, read by as many MACs as the buffer's reuse window holds — which the
// network evaluates element by element against the golden execution
// (network.ForwardFront). Both are bit-identical to dense re-execution at
// the cost of the corruption's receptive-field cone and return a
// golden-aliasing Masked execution when nothing escapes.
func (inj *injector) eval(sc *network.SlotScratch, b Buffer, g *network.Execution, s site, width int) *network.Execution {
	if b == GlobalBuffer {
		return inj.globalFault(sc, g, s, width)
	}
	inj.faults = inj.front(inj.faults[:0], b, g, s, width)
	return sc.ForwardFront(g, s.li, inj.faults)
}

// globalFault flips one bit span of one word of a layer's resident ifmap;
// every read of that word during the layer sees the corruption, so the one
// changed word delta-steps through the struck layer itself. The flip is
// applied to the injector's private copy of the ifmap and undone after: the
// corrupted tensor is never part of the execution.
func (inj *injector) globalFault(sc *network.SlotScratch, g *network.Execution, s site, width int) *network.Execution {
	src := g.LayerInput(s.li)
	in := inj.ifmaps[src]
	if in == nil {
		if inj.ifmaps == nil {
			inj.ifmaps = map[*tensor.Tensor]*tensor.Tensor{}
		}
		in = src.Clone()
		inj.ifmaps[src] = in
	}
	in.Data[s.word] = inj.dt.FlipBits(src.Data[s.word], s.bit, width)
	faulty := sc.ForwardFromInput(g, s.li, in, []int{s.word})
	in.Data[s.word] = src.Data[s.word]
	return faulty
}

// front appends to dst the per-MAC faults the reuse window of a site of a
// per-PE buffer inflicts on MAC layer s.li, in ascending output order:
//
//	Filter SRAM — stored weight word = (channel, chain step) is read by the
//	              whole fmap of its output channel (CONV) or by its one
//	              neuron (FC): a weight-latch fault at that step of every
//	              element of the channel.
//	Img REG     — ifmap word (ic, ih, iw) is read for output row (oc, oh)
//	              only: an input-latch fault at tap (ic, ih−top, iw−left) of
//	              the row's elements whose kernel window covers column iw;
//	              none when no output row covers ih.
//	PSum REG    — one accumulator flip after one chain step.
func (inj *injector) front(dst []layers.Fault, b Buffer, g *network.Execution, s site, width int) []layers.Fault {
	os := g.Acts[s.li].Shape
	switch b {
	case FilterSRAM:
		chain := inj.net.Layers[s.li].(macLayer).MACChainLen()
		oc, step, plane := s.word/chain, s.word%chain, os.H*os.W
		for i := 0; i < plane; i++ {
			dst = append(dst, layers.Fault{OutputIndex: oc*plane + i, MACStep: step, Target: layers.TargetWeight, Bit: s.bit, Width: width})
		}
		return dst
	case ImgReg:
		if s.oh < 0 {
			return dst
		}
		conv := inj.net.Layers[s.li].(*layers.ConvLayer)
		kh := s.ih - (s.oh*conv.Stride - conv.Pad)
		for ow := 0; ow < os.W; ow++ {
			if kw := s.iw - (ow*conv.Stride - conv.Pad); kw >= 0 && kw < conv.KW {
				dst = append(dst, layers.Fault{
					OutputIndex: (s.oc*os.H+s.oh)*os.W + ow, MACStep: (s.ic*conv.KH+kh)*conv.KW + kw,
					Target: layers.TargetInput, Bit: s.bit, Width: width,
				})
			}
		}
		return dst
	case PSumReg:
		return append(dst, layers.Fault{OutputIndex: s.word, MACStep: s.step, Target: layers.TargetAccum, Bit: s.bit, Width: width})
	}
	panic("eyeriss: unknown buffer")
}

// FITComponent assembles the Table 8 Eq. 1 term for a buffer class.
func FITComponent(p Params, b Buffer, sdcProb float64) fit.Component {
	return fit.Component{Name: b.String(), Bits: p.ComponentBits(b), SDCProb: sdcProb}
}
