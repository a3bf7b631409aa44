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

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// Selector draws the next fault site for an injection run.
type Selector func(rng *rand.Rand, p *accel.Profile) accel.Site

// BitSelector fixes the flipped bit position — the Fig. 4 campaign.
func BitSelector(bit int) Selector {
	return func(rng *rand.Rand, p *accel.Profile) accel.Site { return p.Draw(rng, -1, bit, 1) }
}

// BlockSelector fixes the injected CONV/FC block — the Fig. 6 campaign.
func BlockSelector(block int) Selector {
	return func(rng *rand.Rand, p *accel.Profile) accel.Site { return p.Draw(rng, block, -1, 1) }
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
	// construction — and SpreadRate and engine.SDCEstimate apply the
	// Horvitz–Thompson reweighting that recovers unbiased uniform-design
	// estimates.
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

// Merge folds r2 into r. Both reports must have the same dimensions (bit
// width and block count), except that the zero report takes r2's and a
// zero r2 leaves r as it is: the zero value is Merge's two-sided identity.
// Counts merge commutatively; Values and the spread accumulators are
// order-sensitive, so distributed campaigns must merge shard reports in
// shard order to stay bit-identical to a single-process run
// (engine.MergeAll).
func (r *Report) Merge(r2 *Report) {
	if r.PerBit == nil && r2.PerBit != nil {
		*r = *newReport(len(r2.PerBit), len(r2.PerBlock))
	}
	r.Counts.Merge(r2.Counts)
	for i := range r2.PerBit {
		r.PerBit[i].Merge(r2.PerBit[i])
	}
	for i := range r2.PerBlock {
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
		for i := range r2.PreMaskedPerBit {
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

// Options configures a datapath campaign: the shared engine's options
// (budget, seed, shards, detector, sampling and evaluation designs, MBU
// width) and the datapath's own knobs.
type Options struct {
	engine.Options
	// Selector picks fault sites; nil draws uniformly over every (MAC,
	// latch, bit) of the network (accel.Profile.Draw, the Fig. 3
	// campaign). Stratified sampling, the site evaluation modes and MBU
	// campaigns draw their own sites and require the default.
	Selector Selector
	// TrackValues, when positive, samples up to that many ValueRecords.
	TrackValues int
	// TrackSpread enables the Table 5 final-block mismatch metric.
	TrackSpread bool
	// Dense forces every injection through the dense per-layer
	// re-execution path (network.ForwardFromDense) and skips enabling the
	// quantized-parameter cache, so on a fresh network it reproduces the
	// seed implementation exactly. It exists as the baseline for
	// throughput benchmarks and as a debugging oracle; reports are
	// bit-identical either way. The site evaluation modes require the
	// incremental engine.
	Dense bool
}

// Campaign binds a network, format and input set (engine.Campaign) to the
// datapath's fault-site geometry.
type Campaign struct {
	engine.Campaign
	profile *accel.Profile
}

// New creates a campaign over the given inputs and derives its fault-site
// geometry, failing fast on a malformed campaign (engine.Campaign.Prepare).
func New(net *network.Network, dt numeric.Type, inputs []*tensor.Tensor) *Campaign {
	c := &Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: inputs}}
	c.Profile()
	return c
}

// Profile exposes the fault-site geometry, derived on first use.
func (c *Campaign) Profile() *accel.Profile {
	c.Prepare(func() { c.profile = accel.NewProfile(c.Net, c.DType) })
	return c.profile
}

// surface adapts the campaign to the shared engine's Surface interface:
// the engine owns all shard fan-out, phase sequencing, the slot loop,
// allocation-table construction and the canonical merge association, and
// calls back here for report algebra and the fault model (model).
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
	return surface{c: c, opt: opt, bits: c.DType.Width(), blocks: c.Net.NumBlocks()}, opt.Options
}

func (s surface) Campaign() *engine.Campaign             { return &s.c.Campaign }
func (s surface) Strata(r *Report) *engine.StrataSummary { return r.Strata }
func (s surface) Model(ph engine.Phase, of int) engine.Model[*Report] {
	m := &model{surface: s, ph: ph, p: s.c.Profile(), mbu: s.opt.UpsetWidth()}
	if ph.Values && s.opt.TrackValues > 0 {
		m.values = (s.opt.TrackValues + of - 1) / of // the slot's share of the value budget
	}
	return m
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
// the quantized-parameter cache and the option checks. The goldens resolve
// on first use (engine.Campaign.Golden).
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
}

// seedMul separates the per-shard PRNG streams of this surface from the
// other surfaces' streams under equal campaign seeds.
const seedMul = 1_000_003
