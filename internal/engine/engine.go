package engine

import (
	"math/rand"

	"repro/internal/network"
)

// MainSeedSalt separates a stratified campaign's main-phase PRNG streams
// from the pilot's: both phases of shard s derive from the campaign seed,
// but must not replay the same site sequence.
const MainSeedSalt = 500_000_009

// EvalMode selects how a surface evaluates the bit dimension of its fault
// space. The legacy per-bit mode draws an independent (site, bit) pair per
// injection; the site modes draw one site per group of Width consecutive
// injections and evaluate every bit position of that site — either by
// Width scalar replays (the bit-identity reference) or by one bit-parallel
// replay with an analytical masking pre-screen. Both site modes produce
// bit-identical reports to each other; they are a different (deterministic,
// still unbiased) sampling design from the legacy mode.
type EvalMode string

const (
	// EvalPerBit is the legacy design: every injection draws its own
	// (site, bit) uniformly. "" selects it.
	EvalPerBit EvalMode = ""
	// EvalSiteScalar groups injections by site and evaluates each bit with
	// a scalar chain replay — the reference the bit-plane evaluator must
	// match bit-for-bit.
	EvalSiteScalar EvalMode = "site-scalar"
	// EvalSiteBitPlane groups injections by site and evaluates all bits in
	// one bit-plane chain replay behind an analytical masking pre-screen.
	EvalSiteBitPlane EvalMode = "site-bitplane"
)

// DrawUnits returns the number of draw units that cover n injections at
// unitBits injections per unit: 1 in the per-bit design, where every
// injection is its own draw, the word width under a site evaluation mode,
// where one drawn site is evaluated at every bit position (the last unit
// covers fewer injections when unitBits does not divide n).
func DrawUnits(n, unitBits int) int {
	return (n + unitBits - 1) / unitBits
}

// Phase parameterizes one phase of one shard of a campaign. A uniform
// campaign is a single phase with N = Options.N and no strata; a
// stratified campaign is a pilot phase (uniform draws, strata recorded,
// value budget spent — pilot samples are the campaign's only uniform ones,
// keeping value scatters unbiased) followed by a main phase (draws
// dictated by the allocation table, distinct PRNG salt, input cycling
// continued from the pilot's draw-unit index).
type Phase struct {
	// N is the phase's total injection budget across all shards.
	N int
	// UnitBits (≥ 1) is the campaign's draw-unit size: the phase's N
	// injections are covered by DrawUnits(N, UnitBits) units, and shards
	// stride, inputs cycle and the allocation table counts in units.
	UnitBits int
	// SeedSalt offsets the shard's PRNG seed (MainSeedSalt for main
	// phases, 0 otherwise).
	SeedSalt int64
	// InputBase offsets the draw-unit index used to cycle inputs (the
	// pilot's unit count, for main phases).
	InputBase int
	// Table, when non-nil, dictates each draw unit's stratum cell (main
	// phase).
	Table *StratumTable
	// Strata records per-stratum tallies into the phase report.
	Strata bool
	// Values lets the phase spend the campaign's value-sample budget.
	Values bool
}

// Rand returns the PRNG stream of one shard of the phase, seeded only by
// (campaign seed, shard, phase salt). seedMul is the surface's shard
// multiplier, which keeps the surfaces' streams apart under equal campaign
// seeds.
func (ph Phase) Rand(seed int64, shard int, seedMul int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(shard)*seedMul + ph.SeedSalt))
}

// Unit is one draw unit of a phase: one drawn fault site and the NBits
// injections evaluated at it, one per bit position Bit, Bit+1, … — a
// single injection in the per-bit design, every bit of the word (or the
// phase's remainder) under a site evaluation mode.
type Unit struct {
	// Index is the unit's position in the phase, Input its index into the
	// campaign's input cycle.
	Index, Input int
	// Block is the stratum row the allocation table dictates, −1 when the
	// phase has no table and the surface draws it.
	Block int
	// Bit is the unit's first bit: 0 for a whole-word unit; for a one-bit
	// unit the table's, or −1 when the surface draws that too. A forced
	// coordinate consumes no randomness.
	Bit int
	// NBits is the number of injections the unit covers.
	NBits int
}

// Each visits, in order, the draw units shard covers of an of-way strided
// partition of the phase: u = shard, shard+of, … below
// DrawUnits(N, UnitBits). Every unit covers UnitBits injections except the
// phase's last, which carries the remainder of N.
func (ph Phase) Each(shard, of, inputs int, fn func(Unit)) {
	units := DrawUnits(ph.N, ph.UnitBits)
	for i := shard; i < units; i += of {
		u := Unit{Index: i, Input: (ph.InputBase + i) % inputs, Block: -1, Bit: -1,
			NBits: min(ph.UnitBits, ph.N-i*ph.UnitBits)}
		if ph.UnitBits > 1 {
			u.Bit = 0
		}
		if ph.Table != nil {
			var cell int
			u.Block, cell = ph.Table.Stratum(i)
			u.Bit = cell * ph.UnitBits
		}
		fn(u)
	}
}

// Surface is what a fault surface supplies to the engine: its Campaign,
// the strata of its reports and the fault model one slot runs (Model).
// Everything else — the golden executions, the slot layout, phase
// sequencing, the slot loop, pilot merging, Neyman table construction, and
// the one report fold (MergeAll) — is the engine's.
//
// R is the surface's report type; Run and ShardReports also need it
// Mergeable. Model must be safe for concurrent calls.
type Surface[R any] interface {
	// Campaign is the campaign base the surface's campaign embeds: the
	// network, format and inputs RunSlot injects into, and their goldens.
	// Its format's width is the bit dimension of the stratum grid and the
	// draw-unit size of the site evaluation modes.
	Campaign() *Campaign
	// Strata extracts the per-stratum tallies of a strata-recording
	// phase's report (used to build the main-phase allocation).
	Strata(r R) *StrataSummary
	// Model returns a fresh fault model for one slot of phase ph in an
	// of-shard partition.
	Model(ph Phase, of int) Model[R]
}

// Options configures a campaign on any fault surface: the budget, the
// sampling and evaluation designs and the per-injection hooks every surface
// shares. eyeriss.Options and systolic.Options are this type;
// faultinj.Options embeds it and adds the datapath-only knobs.
type Options struct {
	// N is the campaign's total injection budget.
	N int
	// Seed makes the campaign reproducible: every shard's PRNG stream
	// derives from it (Phase.Rand).
	Seed int64
	// Workers is the partition width S: the number of shards, each with its
	// own PRNG stream, the budget is split into — DefaultShards when zero.
	// It is part of the campaign's definition, not a goroutine count: a
	// report is a function of (N, Seed, S) on any host.
	Workers int
	// Detector, when non-nil, is evaluated on every faulty execution for
	// the §6.2 precision/recall tally. It must be safe for concurrent use.
	Detector func(*network.Execution) bool
	// Sampling selects uniform (default) or two-phase stratified sampling
	// over the surface's (block, base bit) stratum grid.
	Sampling SamplingMode
	// PilotN is the stratified pilot budget: DefaultPilotN(N) when zero,
	// clamped to N; negative requests a pilot-free prior-allocated
	// campaign (see Prior).
	PilotN int
	// Prior, when non-nil, seeds the Neyman allocation from a previous
	// campaign's strata instead of running a pilot: the whole budget is
	// main-phase (PilotN is forced negative) and the allocation table is
	// built from Prior. The prior must come from a campaign of the same
	// surface geometry (equal stratum grid and weights).
	Prior *StrataSummary
	// OnPilotStrata, when non-nil, observes the merged pilot strata of a
	// stratified Run right after the allocation table is built — the hook
	// strata artifacts use to persist the pilot for later Prior reuse. Not
	// called for prior-allocated campaigns (no pilot runs).
	OnPilotStrata func(*StrataSummary)
	// Eval selects the evaluation design (see EvalMode). Under a site mode
	// shards stride over DrawUnits(N, width) site draw units and stratified
	// allocation tables are per-block site tables.
	Eval EvalMode
	// MBU is the multi-bit-upset width: every injection flips MBU adjacent
	// bits of the struck word, the base bit drawn uniformly over the
	// width−MBU+1 in-word spans. 0 and 1 both mean single-bit upsets;
	// wider upsets require the per-bit evaluation mode.
	MBU int
}

// UpsetWidth resolves the upset width (≥ 1).
func (opt Options) UpsetWidth() int {
	if opt.MBU <= 1 {
		return 1
	}
	return opt.MBU
}

// DefaultShards is the partition width of a campaign that requests none
// (Options.Workers, campaign.Spec.Shards zero). It is a constant and not the
// host's core count so that such a campaign's report is a function of its
// spec alone.
const DefaultShards = 8

// EffectiveShards returns the shard count Run actually uses for a worker
// request: DefaultShards for none, at least one, at most one per injection.
func EffectiveShards(workers, n int) int {
	if workers <= 0 {
		workers = DefaultShards
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Detection tallies a symptom detector's verdicts against SDC-1 ground
// truth for the paper's §6.2 precision/recall evaluation. Both surfaces
// embed it in their reports.
type Detection struct {
	// Total is the number of injections evaluated.
	Total int
	// DetectedSDC counts SDC-causing faults the detector flagged.
	DetectedSDC int
	// DetectedBenign counts benign faults the detector (wrongly) flagged.
	DetectedBenign int
	// TotalSDC counts all SDC-causing faults.
	TotalSDC int
}

// Tally folds one injection's verdict: sdc1 is the SDC-1 ground truth,
// det the detector's flag.
func (d *Detection) Tally(sdc1, det bool) {
	d.Total++
	if sdc1 {
		d.TotalSDC++
		if det {
			d.DetectedSDC++
		}
	} else if det {
		d.DetectedBenign++
	}
}

// Merge combines detector tallies.
func (d *Detection) Merge(e Detection) {
	d.Total += e.Total
	d.DetectedSDC += e.DetectedSDC
	d.DetectedBenign += e.DetectedBenign
	d.TotalSDC += e.TotalSDC
}

// Precision implements the paper's definition: 1 − (benign faults flagged
// as SDC) / (faults injected).
func (d Detection) Precision() float64 {
	if d.Total == 0 {
		return 1
	}
	return 1 - float64(d.DetectedBenign)/float64(d.Total)
}

// Recall is (SDC-causing faults detected) / (SDC-causing faults).
func (d Detection) Recall() float64 {
	if d.TotalSDC == 0 {
		return 1
	}
	return float64(d.DetectedSDC) / float64(d.TotalSDC)
}
