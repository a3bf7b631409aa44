// Package campaign is the distributed fault-injection orchestration layer:
// it scales a campaign on any fault surface (internal/engine's Surface
// contract; this package's surface table) from one process to a fleet. A
// Machine deterministically partitions one campaign's injection space into
// shard leases, gates stratified main-phase slots on the pilot-derived
// allocation and merges the slot reports; Workers lease shards over HTTP,
// execute them through the shared engine, and push partial reports back.
// The server between the two — lease expiry, journaling (a killed run
// resumes without re-running completed shards), NDJSON result streams,
// metrics — is internal/controlplane's Plane; this package holds no HTTP
// server code, only the wire types both sides share.
//
// Determinism is the load-bearing property: the Machine's ledger and a
// single-process engine.Run execute the slots of one engine.Plan and fold
// them in its association, so a distributed campaign is bit-identical to
// Campaign.Run on one machine — regardless of how many workers
// participated, how slots were interleaved, or how many times the plane was
// killed and resumed.
package campaign

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/systolic"
	"repro/internal/tensor"
)

// Spec is the complete, serializable description of one campaign. Two
// processes holding equal specs execute bit-identical work; the spec is
// embedded in every lease (workers need no other configuration) and in the
// journal's submit event (a resumed campaign is exactly the one submitted).
type Spec struct {
	// Net is one of the paper's model names (models.Names).
	Net string `json:"net"`
	// DType is the numeric format name (numeric.ParseType).
	DType string `json:"dtype"`
	// N is the total number of injections.
	N int `json:"n"`
	// Inputs is the number of distinct campaign images cycled through.
	Inputs int `json:"inputs"`
	// Seed drives every shard's PRNG stream.
	Seed int64 `json:"seed"`
	// Shards is the partition width S: shard s covers injections
	// s, s+S, s+2S, … exactly as worker s of a single-process run;
	// engine.DefaultShards when zero.
	Shards int `json:"shards"`
	// Select names the site selector: "uniform" (Fig. 3), "perbit"
	// (Fig. 4, fixed bit Param) or "perlayer" (Fig. 6, fixed block Param).
	Select string `json:"select"`
	// Param is the fixed bit or block for the non-uniform selectors.
	Param int `json:"param,omitempty"`
	// TrackValues, when positive, samples up to that many activation pairs.
	TrackValues int `json:"track_values,omitempty"`
	// TrackSpread enables the Table 5 final-block mismatch metric.
	TrackSpread bool `json:"track_spread,omitempty"`
	// WeightsDir, when set, loads pre-trained weights (cmd/pretrain
	// output); every participant must see the same directory contents —
	// the golden cache key hashes the loaded weights, and the plane never
	// validates worker arithmetic.
	WeightsDir string `json:"weights_dir,omitempty"`
	// Sampling selects the site-sampling design: "uniform" (default) or
	// "stratified" — the two-phase masking-aware campaign, whose ledger has
	// pilot and main slots (engine.Plan); the Machine computes the
	// allocation table from the merged pilot and serializes it into every
	// main-phase lease.
	Sampling string `json:"sampling,omitempty"`
	// PilotN is the stratified pilot budget; Normalize defaults it to
	// engine.DefaultPilotN(N) so every participant agrees on the split.
	// Normalize forces it to -1 (pilot-free) when PriorPath seeds the
	// allocation from a previous campaign, and refuses a negative one
	// without PriorPath.
	PilotN int `json:"pilot_n,omitempty"`
	// Surface selects the fault surface: "datapath" (default; faultinj
	// latch campaigns), "buffer" (eyeriss buffer-hierarchy campaigns) or
	// "systolic" (dataflow-parameterized systolic-array campaigns, see
	// Dataflow).
	Surface string `json:"surface,omitempty"`
	// Buffer names the injected buffer class of a buffer-surface campaign:
	// "global", "filter", "img" or "psum" (default "global").
	Buffer string `json:"buffer,omitempty"`
	// Dataflow names the systolic-surface dataflow: "weight" (the
	// default, "" included), "output" or "input" — which operand stays
	// resident in each PE and therefore what corruption front each latch
	// fault expands into (systolic.ParseDataflow). Only valid on the
	// systolic surface.
	Dataflow string `json:"dataflow,omitempty"`
	// MBU is the multi-bit-upset width: every injection flips MBU
	// adjacent bits of the struck latch or buffer word, on any surface. 0
	// and 1 both mean single-bit upsets; values above 1 require the
	// per-bit evaluation mode.
	MBU int `json:"mbu,omitempty"`
	// Eval selects the evaluation design: "" (default, an independent
	// (site, bit) pair per injection — the paper's design) or the
	// site-draw modes "site-scalar" and "site-bitplane", which draw one
	// latch site per word width of injections and evaluate every bit
	// position there — "site-bitplane" through one bit-parallel chain
	// replay behind the analytical masking pre-screen. The two site modes
	// are bit-identical to each other; both require the uniform selector.
	Eval string `json:"eval,omitempty"`
	// PriorPath, for stratified campaigns, points at a strata artifact
	// (engine.StrataArtifact JSON) from a previous campaign of the same
	// geometry: the Neyman allocation is seeded from it and the pilot
	// phase is skipped entirely — every ledger slot is main-phase. Only
	// the Machine (or solo runner) reads the file; workers receive the
	// derived table inside main-phase leases.
	PriorPath string `json:"prior_path,omitempty"`
}

// maxShards bounds Spec.Shards, far above any fleet's useful partition
// width.
const maxShards = 1 << 16

// SelectorModes lists the valid Select values.
var SelectorModes = []string{"uniform", "perbit", "perlayer"}

// SamplingModes lists the valid Sampling values.
var SamplingModes = []string{"uniform", "stratified"}

// EvalModes lists the valid Eval values.
var EvalModes = []string{"", "site-scalar", "site-bitplane"}

// BufferNames lists the valid Buffer values in eyeriss.Buffers order.
var BufferNames = []string{"global", "filter", "img", "psum"}

// ParseBuffer maps a spec buffer name to its eyeriss buffer class.
func ParseBuffer(name string) (eyeriss.Buffer, error) {
	if i := slices.Index(BufferNames, name); i >= 0 {
		return eyeriss.Buffers[i], nil
	}
	return 0, fmt.Errorf("campaign: unknown buffer %q (have %v)", name, BufferNames)
}

// Normalize applies defaults and validates the spec in place. It must be
// called (once) before a spec is served, journaled or executed, so that
// every participant agrees on the effective values.
func (s *Spec) Normalize() error {
	if s.Net == "" {
		s.Net = "AlexNet"
	}
	if !slices.Contains(models.Names, s.Net) {
		return fmt.Errorf("campaign: unknown network %q (have %v)", s.Net, models.Names)
	}
	if s.DType == "" {
		s.DType = "FLOAT16"
	}
	dt, err := numeric.ParseType(s.DType)
	if err != nil {
		return fmt.Errorf("campaign: %v", err)
	}
	if s.N <= 0 {
		return fmt.Errorf("campaign: need a positive injection count, got %d", s.N)
	}
	if s.Inputs <= 0 {
		s.Inputs = 1
	}
	// Both counts size allocations — one golden execution per input on
	// every worker, one ledger entry per shard on the plane — before any
	// injection runs, so an unbounded one takes the process down with it.
	if s.Inputs > s.N {
		return fmt.Errorf("campaign: %d inputs for %d injections (inputs past the N-th are never visited)", s.Inputs, s.N)
	}
	if s.Shards > maxShards {
		return fmt.Errorf("campaign: %d shards exceeds the limit of %d", s.Shards, maxShards)
	}
	if !slices.Contains(EvalModes, s.Eval) {
		return fmt.Errorf("campaign: unknown eval mode %q (have %v)", s.Eval, EvalModes)
	}
	if s.Select == "" {
		s.Select = "uniform"
	}
	switch s.Select {
	case "uniform", "perlayer": // perlayer's block is checked once the surface is known
	case "perbit":
		if s.Param < 0 || s.Param >= dt.Width() {
			return fmt.Errorf("campaign: bit %d out of range for %s", s.Param, s.DType)
		}
	default:
		return fmt.Errorf("campaign: unknown selector %q (have %v)", s.Select, SelectorModes)
	}
	if s.Eval != "" && s.Select != "uniform" {
		return fmt.Errorf("campaign: eval mode %q requires the uniform selector, got %q", s.Eval, s.Select)
	}
	if s.Surface == "" {
		s.Surface = "datapath"
	}
	if s.MBU < 0 {
		return fmt.Errorf("campaign: negative MBU width %d", s.MBU)
	}
	if s.MBU > dt.Width() {
		return fmt.Errorf("campaign: MBU width %d exceeds the %d-bit %s word", s.MBU, dt.Width(), s.DType)
	}
	if s.MBU > 1 && s.Eval != "" {
		return fmt.Errorf("campaign: MBU campaigns require the per-bit evaluation mode, got %q", s.Eval)
	}
	// A field only one surface reads is refused on the others; the rest of
	// the surface's validation is its table row's.
	if s.Buffer != "" && s.Surface != "buffer" {
		return fmt.Errorf("campaign: buffer %q set on a %s-surface spec", s.Buffer, s.Surface)
	}
	if s.Dataflow != "" && s.Surface != "systolic" {
		return fmt.Errorf("campaign: dataflow %q set on a %s-surface spec", s.Dataflow, s.Surface)
	}
	row, err := surfaceOf(s.Surface)
	if err != nil {
		return err
	}
	if err := row.normalize(s); err != nil {
		return err
	}
	// An out-of-range block would index past the profile's MAC layers
	// inside a shard goroutine and take the process down with it.
	if s.Select == "perlayer" && (s.Param < 0 || s.Param >= s.dims().blocks) {
		return fmt.Errorf("campaign: block %d out of range for %s (%d MAC layers)", s.Param, s.Net, s.dims().blocks)
	}
	if s.Sampling == "" {
		s.Sampling = "uniform"
	}
	switch s.Sampling {
	case "uniform":
		s.PilotN = 0
		if s.PriorPath != "" {
			return fmt.Errorf("campaign: prior strata only seed stratified campaigns")
		}
	case "stratified":
		if s.Select != "uniform" {
			return fmt.Errorf("campaign: stratified sampling requires the uniform selector, got %q", s.Select)
		}
		if s.PriorPath != "" {
			// Pilot-free: the whole budget is main-phase, allocated from
			// the prior campaign's persisted strata.
			s.PilotN = -1
		} else if s.PilotN < 0 {
			return fmt.Errorf("campaign: negative pilot_n %d: a pilot-free stratified campaign needs a prior_path", s.PilotN)
		} else {
			pilot, _ := engine.PilotBudget(s.N, s.PilotN)
			s.PilotN = pilot
		}
	default:
		return fmt.Errorf("campaign: unknown sampling %q (have %v)", s.Sampling, SamplingModes)
	}
	// The plan bounds the useful shard count (one per draw unit), so that
	// every participant agrees on it.
	if s.Shards <= 0 {
		s.Shards = engine.DefaultShards
	}
	s.Shards = s.plan().Shards()
	return nil
}

// plainOnly refuses what only the datapath surface offers: site selectors
// and value or spread tracking.
func (s Spec) plainOnly() error {
	if s.Select != "uniform" {
		return fmt.Errorf("campaign: %s campaigns support only the uniform selector, got %q", s.Surface, s.Select)
	}
	if s.TrackValues != 0 || s.TrackSpread {
		return fmt.Errorf("campaign: %s campaigns do not track values or spread", s.Surface)
	}
	return nil
}

// Stratified reports whether the normalized spec uses the two-phase
// stratified design.
func (s Spec) Stratified() bool { return s.Sampling == "stratified" }

// plan is the campaign's slot layout (engine.Plan, DESIGN.md §7) under the
// engine options every surface's shards share. The four methods below are
// its views; the spec must be normalized.
func (s Spec) plan() engine.Plan { return engine.NewPlan(s.BufferOptions(), s.Type().Width()) }

// PriorAllocated reports whether the stratified spec skips its pilot in
// favor of a prior campaign's strata.
func (s Spec) PriorAllocated() bool { return s.plan().PriorAllocated() }

// Slots returns the ledger size: the plan's slot count.
func (s Spec) Slots() int { return s.plan().Slots() }

// SlotPhase maps a ledger slot to its phase ("" for uniform campaigns,
// "pilot" or "main" for stratified ones) and phase-local shard index.
func (s Spec) SlotPhase(slot int) (phase string, shard int) { return s.plan().Slot(slot) }

// BuildTable derives the allocation table every main-phase lease of this
// campaign carries from the merged pilot (or prior) strata.
func (s Spec) BuildTable(strata *engine.StrataSummary) *engine.StratumTable {
	return s.plan().Table(strata)
}

// Type returns the parsed numeric format of a normalized spec.
func (s Spec) Type() numeric.Type {
	dt, err := numeric.ParseType(s.DType)
	if err != nil {
		panic(fmt.Sprintf("campaign: spec not normalized: %v", err))
	}
	return dt
}

// Options assembles the faultinj options every shard of this campaign runs
// under: the shared engine options plus the datapath's selector and
// tracking.
func (s Spec) Options() faultinj.Options {
	opt := faultinj.Options{Options: s.BufferOptions(), TrackValues: s.TrackValues, TrackSpread: s.TrackSpread}
	switch s.Select {
	case "perbit":
		opt.Selector = faultinj.BitSelector(s.Param)
	case "perlayer":
		opt.Selector = faultinj.BlockSelector(s.Param)
	}
	return opt
}

// campaignKey identifies the prepared campaign object a spec needs — the
// surface (and, on the systolic surface, the dataflow) that picks the
// campaign type, and the fields that shape the network, format and input
// set. Specs differing only in N, Seed, selector, buffer class or tracking
// share one prepared campaign (and therefore its profile and golden
// executions).
func (s Spec) campaignKey() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%s", s.Surface, s.Dataflow, s.Net, s.DType, s.Inputs, s.WeightsDir)
}

// useGoldens hooks a campaign's golden executions (engine.Campaign.GoldenFn)
// to goldens under the spec's coordinates and the weights hash of the
// network the campaign runs; nil goldens leaves the campaign's own memo in
// charge. Every surface's campaigns take the same hook, so one process pays
// one forward pass per (network, weights, format, input) however many
// campaigns, surfaces, shards and phases read it.
func (s Spec) useGoldens(c *engine.Campaign, goldens *GoldenCache) {
	if goldens == nil {
		return
	}
	key := GoldenKey{Net: s.Net, WeightsHash: c.Net.WeightsHash(), DType: s.DType}
	c.GoldenFn = func(i int, compute func() *network.Execution) *network.Execution {
		k := key
		k.Input = i
		return goldens.Get(k, compute)
	}
}

// inputs generates the spec's deterministic input set.
func (s Spec) inputs() []*tensor.Tensor {
	ins := make([]*tensor.Tensor, s.Inputs)
	for i := range ins {
		ins[i] = models.InputFor(s.Net, i)
	}
	return ins
}

// network builds the spec's network: the model's deterministic synthetic
// weights, or the pre-trained ones in WeightsDir. Every surface's prepared
// campaign calls it exactly once and shares the result, read-only, among
// all its slots — and hashes that same instance into its golden keys — so a
// directory edited mid-campaign cannot mix weights across shards.
func (s Spec) network() (*network.Network, error) {
	if s.WeightsDir == "" {
		return models.Build(s.Net), nil
	}
	net, err := models.LoadPretrained(s.Net, s.WeightsDir)
	if err != nil {
		return nil, fmt.Errorf("campaign: loading weights: %v", err)
	}
	return net, nil
}

// NewCampaign builds and wires a faultinj campaign for the spec. When
// goldens is non-nil the campaign resolves golden executions through it,
// sharing them with every other campaign in the process whose
// (network, weights hash, input, dtype) coordinates match.
func (s Spec) NewCampaign(goldens *GoldenCache) (*faultinj.Campaign, error) {
	net, err := s.network()
	if err != nil {
		return nil, err
	}
	c := faultinj.New(net, s.Type(), s.inputs())
	s.useGoldens(&c.Campaign, goldens)
	return c, nil
}

// BufferOptions assembles the shared engine options every shard of the
// campaign runs under, on any surface: the whole of eyeriss.Options and
// systolic.Options, and what faultinj.Options embeds.
func (s Spec) BufferOptions() eyeriss.Options {
	opt := engine.Options{N: s.N, Seed: s.Seed, Workers: s.Shards, MBU: s.MBU, Eval: engine.EvalMode(s.Eval)}
	if s.Stratified() {
		opt.Sampling = engine.SamplingStratified
		opt.PilotN = s.PilotN
	}
	return opt
}

// SystolicOptions assembles the systolic options every shard of a
// systolic-surface campaign runs under — the same shared engine options.
func (s Spec) SystolicOptions() systolic.Options { return s.BufferOptions() }

// NewBufferCampaign builds the eyeriss campaign of a buffer-surface spec
// and resolves its buffer class. The campaign memoizes its goldens
// privately; the surface table wires it to a process-wide cache instead.
func (s Spec) NewBufferCampaign() (*eyeriss.Campaign, eyeriss.Buffer, error) {
	if s.Surface != "buffer" {
		return nil, 0, fmt.Errorf("campaign: spec surface %q is not a buffer campaign", s.Surface)
	}
	buf, err := ParseBuffer(s.Buffer)
	if err != nil {
		return nil, 0, err
	}
	net, err := s.network()
	if err != nil {
		return nil, 0, err
	}
	return &eyeriss.Campaign{Campaign: engine.Campaign{Net: net, DType: s.Type(), Inputs: s.inputs()}}, buf, nil
}

// NewSystolicCampaign builds the systolic campaign of a systolic-surface
// spec. The array geometry is the package default so every participant
// agrees on the physical address space, and the dataflow comes from the
// spec so every participant expands the same corruption fronts.
func (s Spec) NewSystolicCampaign() (*systolic.Campaign, error) {
	if s.Surface != "systolic" {
		return nil, fmt.Errorf("campaign: spec surface %q is not a systolic campaign", s.Surface)
	}
	flow, err := systolic.ParseDataflow(s.Dataflow)
	if err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	net, err := s.network()
	if err != nil {
		return nil, err
	}
	return &systolic.Campaign{
		Campaign: engine.Campaign{Net: net, DType: s.Type(), Inputs: s.inputs()},
		Array:    systolic.DefaultParams,
		Flow:     flow,
	}, nil
}

// LoadPrior reads the spec's PriorPath strata artifact and refuses one
// this campaign cannot allocate from: an artifact that lacks a label every
// writer sets (surface, network, format, and the buffer on the buffer
// surface) or names another, whose stratum grid or weights are not the
// spec's bit for bit (another upset width, say), or whose tallies no run of
// injections produces (StrataSummary.Check, as for a slot report's strata).
// Only NewMachine and the solo runner call this; workers get the derived
// allocation table inside their main-phase leases.
func (s Spec) LoadPrior() (*engine.StrataSummary, error) {
	a, err := engine.ReadStrataArtifact(s.PriorPath)
	if err != nil {
		return nil, err
	}
	for _, l := range []struct{ what, got, want string }{
		{"surface", a.Surface, s.Surface},
		{"network", a.Net, s.Net},
		{"format", a.DType, s.DType},
		{"buffer", a.Buffer, s.Buffer},
	} {
		if l.got == l.want {
			continue
		}
		if l.got == "" {
			return nil, fmt.Errorf("campaign: prior %s carries no %s label, campaign runs %q", s.PriorPath, l.what, l.want)
		}
		return nil, fmt.Errorf("campaign: prior %s is for %s %q, campaign runs %q", s.PriorPath, l.what, l.got, l.want)
	}
	p, d := a.Prior(), s.dims()
	if p.Blocks != d.blocks || p.Bits != d.bits || !p.Weight.Equal(d.weights) {
		return nil, fmt.Errorf("campaign: prior %s (a %d×%d stratum grid) is not weighted as the campaign's %d×%d grid at upset width %d",
			s.PriorPath, p.Blocks, p.Bits, d.blocks, d.bits, s.BufferOptions().UpsetWidth())
	}
	if err := p.Check(d.blocks, d.bits, p.SpreadSum != nil || p.SpreadN != nil); err != nil {
		return nil, fmt.Errorf("campaign: prior %s: %v", s.PriorPath, err)
	}
	return p, nil
}
