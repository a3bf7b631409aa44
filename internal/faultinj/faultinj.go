// Package faultinj runs the paper's fault-injection campaigns: thousands
// of independent inferences, each with one transient single-bit fault in
// the accelerator datapath, classified against the fault-free execution
// (§4.4). Campaigns are deterministic (seeded), parallel (one worker per
// CPU by default) and cheap per injection: the golden execution per input
// is computed once, and each faulty run resumes from the faulted layer.
package faultinj

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Selector draws the next fault site for an injection run.
type Selector func(rng *rand.Rand, p *accel.Profile) accel.Site

// UniformSelector injects uniformly over every (MAC, latch, bit) of the
// network — the Fig. 3 campaign.
func UniformSelector(rng *rand.Rand, p *accel.Profile) accel.Site {
	return p.RandomSite(rng)
}

// BitSelector fixes the flipped bit position — the Fig. 4 campaign.
func BitSelector(bit int) Selector {
	return func(rng *rand.Rand, p *accel.Profile) accel.Site {
		return p.RandomSiteWithBit(rng, bit)
	}
}

// BlockSelector fixes the injected CONV/FC block — the Fig. 6 campaign.
func BlockSelector(block int) Selector {
	return func(rng *rand.Rand, p *accel.Profile) accel.Site {
		return p.RandomSiteInBlock(rng, block)
	}
}

// ValueRecord samples the faulted activation before and after the error —
// the Fig. 5 scatter data.
type ValueRecord struct {
	Golden, Faulty float64
	SDC            bool
}

// valueRecordJSON carries a ValueRecord through JSON as raw IEEE-754 bit
// patterns: faulty activations are routinely NaN or ±Inf, which
// encoding/json rejects as numbers, and the distributed campaign service
// needs reports to round-trip bit-exactly between workers and the
// coordinator.
type valueRecordJSON struct {
	G   string `json:"g"`
	F   string `json:"f"`
	SDC bool   `json:"sdc,omitempty"`
}

// MarshalJSON implements json.Marshaler (see valueRecordJSON).
func (v ValueRecord) MarshalJSON() ([]byte, error) {
	return json.Marshal(valueRecordJSON{
		G:   strconv.FormatUint(math.Float64bits(v.Golden), 16),
		F:   strconv.FormatUint(math.Float64bits(v.Faulty), 16),
		SDC: v.SDC,
	})
}

// UnmarshalJSON implements json.Unmarshaler (see valueRecordJSON).
func (v *ValueRecord) UnmarshalJSON(data []byte) error {
	var j valueRecordJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	g, err := strconv.ParseUint(j.G, 16, 64)
	if err != nil {
		return fmt.Errorf("faultinj: bad golden value bits %q: %v", j.G, err)
	}
	f, err := strconv.ParseUint(j.F, 16, 64)
	if err != nil {
		return fmt.Errorf("faultinj: bad faulty value bits %q: %v", j.F, err)
	}
	v.Golden, v.Faulty, v.SDC = math.Float64frombits(g), math.Float64frombits(f), j.SDC
	return nil
}

// Detection tallies a symptom detector's verdicts against SDC-1 ground
// truth for the §6.2 precision/recall evaluation (see engine.Detection;
// the type lives in the shared engine because both fault surfaces embed
// it).
type Detection = engine.Detection

// Report aggregates one campaign.
type Report struct {
	// Counts is the overall SDC tally.
	Counts sdc.Counts
	// PerBit[b] tallies injections whose flipped bit was b.
	PerBit []sdc.Counts
	// PerBlock[i] tallies injections into paper-style block i.
	PerBlock []sdc.Counts
	// PerTarget tallies per ALU latch.
	PerTarget [layers.NumTargets]sdc.Counts
	// Values holds up to the requested number of activation samples.
	Values []ValueRecord
	// SpreadSum/SpreadN accumulate, per injected block, the fraction of
	// final-block ACT elements that differ bit-wise from golden — the
	// Table 5 propagation metric.
	SpreadSum []float64
	SpreadN   []int
	// Masked counts injections the incremental engine proved bit-clean
	// before the output (always 0 when Options.Dense, which never looks).
	Masked int
	// PreMasked counts the subset of Masked injections the analytical
	// pre-screen of the bit-parallel evaluation mode proved masked without
	// any chain replay or propagation (always 0 outside EvalSiteBitPlane).
	// Pre-screened injections tally into Masked, Counts and every other
	// accumulator exactly as simulated-masked ones do; this counter only
	// records how they were proven.
	PreMasked int `json:",omitempty"`
	// PreMaskedPerBit[b] splits PreMasked by flipped bit position; nil when
	// PreMasked is 0.
	PreMaskedPerBit []int `json:",omitempty"`
	// Detection tallies the optional symptom detector.
	Detection Detection
	// Strata carries the per-(block, bit) tallies and population weights of
	// a stratified campaign; nil for uniform campaigns. When present, the
	// raw Counts/PerBit/PerBlock fields are sample tallies under the
	// stratified design — biased toward high-variance strata by
	// construction — and SDCEstimate/SpreadRate apply the Horvitz–Thompson
	// reweighting that recovers unbiased uniform-design estimates.
	Strata *engine.StrataSummary `json:",omitempty"`
}

func newReport(bits, blocks int) *Report {
	return &Report{
		PerBit:    make([]sdc.Counts, bits),
		PerBlock:  make([]sdc.Counts, blocks),
		SpreadSum: make([]float64, blocks),
		SpreadN:   make([]int, blocks),
	}
}

// NewReport allocates an empty report for a campaign with the given bit
// width and paper-style block count — the dimensions every shard report of
// one campaign shares, and the shape Merge requires of both operands.
func NewReport(bits, blocks int) *Report { return newReport(bits, blocks) }

// Merge folds r2 into r. Both reports must have the same dimensions (bit
// width and block count). Counts merge commutatively; Values and the
// spread accumulators are order-sensitive, so distributed campaigns must
// merge shard reports in shard order to stay bit-identical to a
// single-process run (see MergeReports).
func (r *Report) Merge(r2 *Report) { r.merge(r2) }

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
			total = newReport(len(r.PerBit), len(r.PerBlock))
		}
		total.merge(r)
	}
	return total
}

// merge folds r2 into r.
func (r *Report) merge(r2 *Report) {
	r.Counts.Merge(r2.Counts)
	for i := range r.PerBit {
		r.PerBit[i].Merge(r2.PerBit[i])
	}
	for i := range r.PerBlock {
		r.PerBlock[i].Merge(r2.PerBlock[i])
		r.SpreadSum[i] += r2.SpreadSum[i]
		r.SpreadN[i] += r2.SpreadN[i]
	}
	for i := range r.PerTarget {
		r.PerTarget[i].Merge(r2.PerTarget[i])
	}
	r.Values = append(r.Values, r2.Values...)
	r.Detection.Merge(r2.Detection)
	r.Masked += r2.Masked
	r.PreMasked += r2.PreMasked
	if r2.PreMaskedPerBit != nil {
		if r.PreMaskedPerBit == nil {
			r.PreMaskedPerBit = make([]int, len(r.PerBit))
		}
		for i := range r.PreMaskedPerBit {
			r.PreMaskedPerBit[i] += r2.PreMaskedPerBit[i]
		}
	}
	r.Strata = engine.MergeStrata(r.Strata, r2.Strata)
}

// SpreadRate returns the mean bit-wise mismatch fraction at the final
// block for faults injected into block i (Table 5). Stratified campaigns
// reweight the per-stratum means so the rate estimates what a uniform
// campaign would measure.
func (r *Report) SpreadRate(block int) float64 {
	if r.Strata != nil && len(r.Strata.SpreadN) > 0 {
		return r.Strata.BlockSpread(block)
	}
	if r.SpreadN[block] == 0 {
		return 0
	}
	return r.SpreadSum[block] / float64(r.SpreadN[block])
}

// SDCEstimate returns the campaign's estimate of the uniform-design SDC
// probability for criterion k with its 95% CI half-width. Uniform
// campaigns return the raw pooled proportion; stratified campaigns return
// the reweighted estimator, which is unbiased for the same quantity but
// typically much tighter at equal budget.
func (r *Report) SDCEstimate(k sdc.Kind) (p, ci95 float64) {
	if r.Strata != nil {
		e := r.Strata.Estimate(k)
		return e.P(), e.CI95()
	}
	pr := stats.Proportion{Successes: r.Counts.Hits[k], Trials: r.Counts.DefinedTrials[k]}
	return pr.P(), pr.CI95()
}

// BlockSDCEstimate is the per-block (Fig. 6) analogue of SDCEstimate.
func (r *Report) BlockSDCEstimate(block int, k sdc.Kind) (p, ci95 float64) {
	if r.Strata != nil {
		e := r.Strata.BlockEstimate(block, k)
		return e.P(), e.CI95()
	}
	pr := stats.Proportion{
		Successes: r.PerBlock[block].Hits[k],
		Trials:    r.PerBlock[block].DefinedTrials[k],
	}
	return pr.P(), pr.CI95()
}

// Options configures a campaign.
type Options struct {
	// N is the number of injections.
	N int
	// Seed makes the campaign reproducible.
	Seed int64
	// Selector picks fault sites; UniformSelector when nil.
	Selector Selector
	// TrackValues, when positive, samples up to that many ValueRecords.
	TrackValues int
	// TrackSpread enables the Table 5 final-block mismatch metric.
	TrackSpread bool
	// Detector, when non-nil, is evaluated on every faulty execution for
	// the §6.2 precision/recall tally. It must be safe for concurrent use.
	Detector func(*network.Execution) bool
	// Workers is the partition width S (engine.Options.Workers):
	// engine.DefaultShards when zero. The report depends on it, not on how
	// many goroutines run.
	Workers int
	// Dense forces every injection through the dense per-layer
	// re-execution path (network.ForwardFromDense) and skips enabling the
	// quantized-parameter cache, so on a fresh network it reproduces the
	// seed implementation exactly. It exists as the baseline for
	// throughput benchmarks and as a debugging oracle; reports are
	// bit-identical either way.
	Dense bool
	// Sampling selects the site-sampling design: engine.SamplingUniform
	// (the default, "" included) or SamplingStratified — the two-phase
	// masking-aware campaign (see internal/engine). Stratified campaigns
	// require the default uniform Selector; Report.SDCEstimate and
	// SpreadRate stay unbiased estimates of the uniform-design quantities
	// either way.
	Sampling engine.SamplingMode
	// PilotN is the uniform pilot budget of a stratified campaign;
	// engine.DefaultPilotN(N) when zero. Ignored under uniform sampling.
	PilotN int
	// Prior, when non-nil, seeds a stratified campaign's Neyman allocation
	// from a previous campaign's persisted strata instead of running a
	// pilot: the whole budget is main-phase. The prior must come from a
	// campaign over the same network and format (equal stratum grid and
	// weights).
	Prior *engine.StrataSummary
	// OnPilotStrata, when non-nil, observes the merged pilot strata of a
	// stratified Run right after the allocation table is built — the hook
	// strata artifacts use to persist the pilot for later Prior reuse.
	OnPilotStrata func(*engine.StrataSummary)
	// Eval selects the evaluation mode: engine.EvalPerBit (the default "",
	// one independent (site, bit) draw per injection — the paper's design),
	// EvalSiteScalar or EvalSiteBitPlane (site-draw designs: each drawn
	// site is evaluated at every bit position, scalar replays vs one
	// bit-parallel replay with an analytical masking pre-screen). The two
	// site modes produce bit-identical reports; the per-bit mode is a
	// different (equally valid) sampling design with its own PRNG stream.
	// Site modes require the default uniform Selector and are incompatible
	// with Dense.
	Eval engine.EvalMode
	// MBU is the multi-bit-upset width: every injection flips MBU
	// adjacent bits of the struck latch. 0 and 1 both mean single-bit
	// upsets. Requires the per-bit evaluation mode and the default
	// uniform Selector; the base bit is drawn uniformly over the
	// Width()−MBU+1 in-word spans.
	MBU int
}

// engineOptions maps the options onto the shared engine's: the ten fields
// every surface has, which the engine validates and orchestrates by. What
// stays behind is the datapath's own (Selector, tracking, Dense).
func (opt Options) engineOptions() engine.Options {
	return engine.Options{
		N: opt.N, Seed: opt.Seed, Workers: opt.Workers, Detector: opt.Detector,
		Sampling: opt.Sampling, PilotN: opt.PilotN,
		Prior: opt.Prior, OnPilotStrata: opt.OnPilotStrata,
		Eval: opt.Eval, MBU: opt.MBU,
	}
}

// Campaign binds a network, format and input set.
type Campaign struct {
	Net    *network.Network
	DType  numeric.Type
	Inputs []*tensor.Tensor

	// GoldenFn, when non-nil, resolves the golden execution of input i
	// instead of computing it directly: compute runs the fault-free
	// forward pass, and implementations return its result or a previously
	// computed, bit-identical one. The distributed campaign service hooks
	// a process-wide golden-execution cache here so campaigns sharing
	// (network, weights, input, format) run the golden pass once per
	// machine. The campaign consults it once per input (network.GoldenMemo).
	// Must be set before the first Run/Surface/Golden call.
	GoldenFn func(i int, compute func() *network.Execution) *network.Execution

	profile atomic.Pointer[accel.Profile]
	goldens network.GoldenMemo
}

// New creates a campaign over the given inputs.
func New(net *network.Network, dt numeric.Type, inputs []*tensor.Tensor) *Campaign {
	if len(inputs) == 0 {
		panic("faultinj: campaign needs at least one input")
	}
	return &Campaign{Net: net, DType: dt, Inputs: inputs}
}

// Profile exposes the fault-site geometry, derived on first use.
func (c *Campaign) Profile() *accel.Profile {
	if p := c.profile.Load(); p != nil {
		return p
	}
	c.profile.CompareAndSwap(nil, accel.NewProfile(c.Net, c.DType))
	return c.profile.Load()
}

// Golden returns the golden execution of input i, resolved once for the
// campaign's lifetime (network.GoldenMemo).
func (c *Campaign) Golden(i int) *network.Execution {
	return c.goldens.Golden(c.Net, c.DType, c.Inputs, i, c.GoldenFn)
}

// surface adapts the campaign to the shared engine's Surface interface:
// the engine owns all shard fan-out, phase sequencing, allocation-table
// construction and the canonical merge association, and calls back here
// for report algebra and per-injection execution.
type surface struct {
	c            *Campaign
	opt          Options
	bits, blocks int
}

// Surface binds the campaign to the shared engine: its Surface adapter and
// the engine options it runs under — what engine.Run, engine.NewPlan and
// engine.RunSlot take.
func (c *Campaign) Surface(opt Options) (engine.Surface[*Report], engine.Options) {
	c.setup(&opt)
	return surface{c: c, opt: opt, bits: c.DType.Width(), blocks: c.Profile().NumMACLayers()}, opt.engineOptions()
}

func (s surface) Width() int                             { return s.bits }
func (s surface) NewReport() *Report                     { return newReport(s.bits, s.blocks) }
func (s surface) Merge(dst, src *Report)                 { dst.merge(src) }
func (s surface) Strata(r *Report) *engine.StrataSummary { return r.Strata }
func (s surface) RunPhase(shard, of int, ph engine.Phase) *Report {
	return s.c.runShardPhase(shard, of, s.opt, s.bits, s.blocks, ph)
}

// Run executes the campaign and aggregates its report (engine.Run): the
// slots of the campaign's engine.Plan at S = opt.Workers shards, run on
// goroutines and folded in the plan's association — the reference a
// distributed run of the same plan is bit-identical to.
func (c *Campaign) Run(opt Options) *Report {
	s, eo := c.Surface(opt)
	return engine.Run(s, eo)
}

// setup performs the idempotent per-campaign preparation behind Surface:
// the quantized-parameter cache, the option checks and the selector
// default. The goldens resolve on first use (Golden).
func (c *Campaign) setup(opt *Options) {
	if !opt.Dense {
		// Quantize each layer's parameters once per campaign; every
		// shard (and the golden passes) shares the read-only result.
		c.Net.EnableQuantCache()
	}
	if opt.Sampling == engine.SamplingStratified && opt.Selector != nil {
		panic("faultinj: stratified sampling draws its own sites and is incompatible with a custom Selector")
	}
	if opt.MBU > 1 && opt.Selector != nil {
		panic("faultinj: MBU campaigns draw their own base-bit spans and are incompatible with a custom Selector")
	}
	if opt.Eval != engine.EvalPerBit {
		if opt.Selector != nil {
			panic("faultinj: site-draw evaluation modes draw their own sites and are incompatible with a custom Selector")
		}
		if opt.Dense {
			panic("faultinj: site-draw evaluation modes require the incremental engine (Options.Dense unsupported)")
		}
	}
	if opt.Selector == nil {
		opt.Selector = UniformSelector
	}
}

// stratumWeights returns the (block, base bit) population probabilities
// under uniform site sampling: the block's MAC share spread over its valid
// base-bit strata (engine.StratumGrid). Identical for every shard of a
// campaign (pure function of the profile).
func (c *Campaign) stratumWeights(bits, blocks, mbu int) engine.HexFloats {
	p := c.Profile()
	return engine.StratumGrid(blocks, bits, mbu, func(b, valid int) float64 {
		return p.BlockWeight(b) / float64(valid)
	})
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 1_000_003

// valueBudget is one shard's share of the campaign's value-sample budget
// in a phase that may spend it.
func (c *Campaign) valueBudget(opt Options, of int, ph engine.Phase) int {
	if ph.Values && opt.TrackValues > 0 {
		return (opt.TrackValues + of - 1) / of
	}
	return 0
}

// drawnSite is one draw unit of a shard (engine.Unit): a pre-drawn latch
// site and the nbits injections evaluated at it, one per bit position from
// site.Fault.Bit upward — one in the per-bit design, every bit of the word
// under a site mode.
type drawnSite struct {
	injBase  int // shard-local injection index of the unit's first bit
	inputIdx int
	site     accel.Site
	nbits    int
}

// injResult buffers one injection's outcome so grouped execution can fold
// results back into the report in draw order — float accumulation order
// and value-sample selection stay bit-identical to the ungrouped loop.
type injResult struct {
	outcome  sdc.Outcome
	masked   bool
	pre      bool // proven masked by the analytical pre-screen (no replay)
	block    int
	bit      int
	target   layers.Target
	value    ValueRecord
	hasValue bool
	spread   float64
	det      bool
}

// runShardPhase executes one phase of one shard (see engine.Phase) — the
// per-unit execution the engine's orchestration calls back into. Fault
// sites are drawn first, one per draw unit (engine.Phase.Each), in the
// exact PRNG order of an unbatched per-unit loop; execution is then grouped
// by (input, faulted layer) so each group shares one InjectionBatch — the
// golden prefix views and the faulted layer's quantized input are resolved
// once per group instead of once per injection (execution consumes no
// randomness, so reordering it is invisible to the PRNG stream). Results
// fold into the report in draw order, a unit's injections in ascending bit
// order, keeping every accumulator — including the order-sensitive spread
// sums and value samples — bit-identical to unbatched execution.
func (c *Campaign) runShardPhase(shard, of int, opt Options, bits, blocks int, ph engine.Phase) *Report {
	rng := ph.Rand(opt.Seed, shard, seedMul)
	valueBudget := c.valueBudget(opt, of, ph)
	p := c.Profile()

	// Phase 1: draw every site of the shard in sequence order. A forced
	// coordinate — the stratum a main-phase table dictates, bit 0 of a
	// whole-word unit — replaces the selector and consumes no randomness:
	// only the site within it is random (two PRNG values, MAC index and
	// latch, like every uniform draw's tail).
	mbu := opt.engineOptions().UpsetWidth()
	var seq []drawnSite
	totalInj := 0
	ph.Each(shard, of, len(c.Inputs), func(u engine.Unit) {
		var site accel.Site
		switch {
		case u.Block >= 0:
			site = p.RandomSiteInBlockWithBit(rng, u.Block, u.Bit)
			if mbu > 1 {
				site.Fault.Width = mbu
			}
		case u.Bit >= 0:
			site = p.RandomSiteWithBit(rng, u.Bit)
		case mbu > 1:
			site = p.RandomSiteMBU(rng, mbu)
		default:
			site = opt.Selector(rng, p)
		}
		seq = append(seq, drawnSite{injBase: totalInj, inputIdx: u.Input, site: site, nbits: u.NBits})
		totalInj += u.NBits
	})

	// Phase 2: group by (input, faulted layer), first-appearance order.
	type groupKey struct{ input, layer int }
	groups := make(map[groupKey][]drawnSite)
	var order []groupKey
	for _, d := range seq {
		k := groupKey{d.inputIdx, d.site.Layer}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], d)
	}

	// Phase 3: execute each group through a shared batch (none under the
	// dense oracle, which re-executes the network per injection).
	results := make([]injResult, totalInj)
	for _, k := range order {
		group := groups[k]
		golden := c.Golden(k.input)
		var batch *network.InjectionBatch
		if !opt.Dense {
			expected := 0
			for _, d := range group {
				expected += d.nbits
			}
			batch = c.Net.NewInjectionBatch(c.DType, golden, k.layer, expected)
		}
		for _, d := range group {
			c.runUnit(batch, golden, d, opt, valueBudget, results)
		}
	}

	// Phase 4: fold in draw order.
	return c.foldResults(results, opt, bits, blocks, ph)
}

// foldResults folds buffered injection outcomes — indexed in draw order —
// into a fresh phase report, so every accumulator (including the
// order-sensitive spread sums and value samples) is built by the same code
// whatever evaluated the injection.
func (c *Campaign) foldResults(results []injResult, opt Options, bits, blocks int, ph engine.Phase) *Report {
	r := newReport(bits, blocks)
	if ph.Strata {
		r.Strata = engine.NewStrata(blocks, bits, c.stratumWeights(bits, blocks, opt.engineOptions().UpsetWidth()), opt.TrackSpread)
	}
	for i := range results {
		res := &results[i]
		if res.masked {
			r.Masked++
		}
		if res.pre {
			r.PreMasked++
			if r.PreMaskedPerBit == nil {
				r.PreMaskedPerBit = make([]int, bits)
			}
			r.PreMaskedPerBit[res.bit]++
		}
		r.Counts.Add(res.outcome)
		r.PerBit[res.bit].Add(res.outcome)
		r.PerBlock[res.block].Add(res.outcome)
		r.PerTarget[res.target].Add(res.outcome)
		if r.Strata != nil {
			r.Strata.Counts[res.block*bits+res.bit].Add(res.outcome)
		}
		if res.hasValue {
			r.Values = append(r.Values, res.value)
		}
		if opt.TrackSpread {
			r.SpreadSum[res.block] += res.spread
			r.SpreadN[res.block]++
			if r.Strata != nil {
				r.Strata.SpreadSum[res.block*bits+res.bit] += res.spread
				r.Strata.SpreadN[res.block*bits+res.bit]++
			}
		}
		if opt.Detector != nil {
			r.Detection.Tally(res.outcome.Hit[sdc.SDC1], res.det)
		}
	}
	return r
}
