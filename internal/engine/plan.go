package engine

import (
	"fmt"
	"sync"
)

// The phase names of a campaign's slots, as leases spell them.
const (
	// PhaseUniform is the one phase of a uniform campaign.
	PhaseUniform = ""
	// PhasePilot is a stratified campaign's uniform, strata-recording pilot.
	PhasePilot = "pilot"
	// PhaseMain is a stratified campaign's table-allocated main phase.
	PhaseMain = "main"
)

// Plan is a campaign's slot layout, and the only place that knows it: how
// many slots the campaign has and which (phase, shard) each one is, which
// slots wait on the allocation table, how that table derives from the
// pooled pilot or prior strata, and in which association slot reports fold
// into the campaign report. A slot is the unit of execution and of
// reporting — one phase of one shard. Every scheduler of a campaign — Run
// on goroutines, the distributed ledger over a fleet — runs the same plan's
// slots through RunSlot and folds them through Fold, so their reports
// cannot differ (DESIGN.md §7).
//
//	design           slots  slot i is
//	uniform          S      (uniform, shard i)
//	stratified       2·S    (pilot, shard i/2) for even i, (main, shard i/2) for odd
//	prior-allocated  S      (main, shard i)
//
// S is EffectiveShards over the campaign's draw units (Phase.Each): one
// per injection in the per-bit design, one per word width of injections —
// a site, evaluated at every bit — under a site evaluation mode. Shard
// striding, input cycling and the allocation table all count draw units.
type Plan struct {
	n, shards int
	// unitBits (≥ 1) is the draw-unit size: 1 in the per-bit design, the
	// word width under a site mode.
	unitBits int
	// stratified plans split n into pilotN + mainN; pilotN is zero exactly
	// when the allocation comes from a prior campaign instead of a pilot.
	stratified    bool
	pilotN, mainN int
	// How RunSlot evaluates the slots: the campaign seed every slot's PRNG
	// derives from, whether single-MAC sites replay bit-parallel, and
	// whether a detector needs every injection's faulty execution.
	seed            int64
	plane, needExec bool
}

// NewPlan validates the options every surface shares against the surface's
// word width and lays the campaign out.
func NewPlan(opt Options, width int) Plan {
	if opt.MBU > width {
		panic(fmt.Sprintf("engine: MBU width %d exceeds the %d-bit word", opt.MBU, width))
	}
	p := Plan{n: opt.N, unitBits: 1, seed: opt.Seed,
		plane: opt.Eval == EvalSiteBitPlane, needExec: opt.Detector != nil}
	switch opt.Eval {
	case EvalPerBit:
	case EvalSiteScalar, EvalSiteBitPlane:
		if opt.UpsetWidth() > 1 {
			panic("engine: MBU campaigns require the per-bit evaluation mode")
		}
		p.unitBits = width
	default:
		panic(fmt.Sprintf("engine: unknown eval mode %q", opt.Eval))
	}
	p.shards = EffectiveShards(opt.Workers, DrawUnits(opt.N, p.unitBits))
	if opt.Sampling == SamplingStratified {
		p.stratified = true
		pilotN := opt.PilotN
		if opt.Prior != nil {
			pilotN = -1
		}
		p.pilotN, p.mainN = PilotBudget(opt.N, pilotN)
	}
	return p
}

// Shards returns S, the width of every phase's strided partition.
func (p Plan) Shards() int { return p.shards }

// Pilots returns the number of pilot slots: S for a stratified campaign
// that runs its own pilot, zero otherwise.
func (p Plan) Pilots() int {
	if p.pilotN > 0 {
		return p.shards
	}
	return 0
}

// Slots returns the number of slots.
func (p Plan) Slots() int { return p.shards + p.Pilots() }

// PriorAllocated reports whether the campaign is stratified without a
// pilot: every slot is main-phase, allocated from a prior campaign's strata.
func (p Plan) PriorAllocated() bool { return p.stratified && p.pilotN == 0 }

// Slot returns the phase of a slot and its shard index within that phase.
func (p Plan) Slot(slot int) (phase string, shard int) {
	if slot < 0 || slot >= p.Slots() {
		panic(fmt.Sprintf("engine: slot %d out of range [0,%d)", slot, p.Slots()))
	}
	switch {
	case !p.stratified:
		return PhaseUniform, slot
	case p.pilotN == 0:
		return PhaseMain, slot
	case slot%2 == 0:
		return PhasePilot, slot / 2
	}
	return PhaseMain, slot / 2
}

// Gated reports whether a slot needs the allocation table to run — the
// main-phase slots.
func (p Plan) Gated(slot int) bool {
	phase, _ := p.Slot(slot)
	return phase == PhaseMain
}

// wave lists, in slot order, the slots that are (or are not) gated.
func (p Plan) wave(gated bool) []int {
	var slots []int
	for slot := 0; slot < p.Slots(); slot++ {
		if p.Gated(slot) == gated {
			slots = append(slots, slot)
		}
	}
	return slots
}

// Table derives the allocation every gated slot runs under from the pooled
// pilot strata (PilotReport) or a prior campaign's: the main phase's draw
// units spread over the cells of the stratum grid one unit samples at once
// (BuildStratumTable).
func (p Plan) Table(strata *StrataSummary) *StratumTable {
	return BuildStratumTable(strata, DrawUnits(p.mainN, p.unitBits), p.unitBits)
}

// Injections returns the number of injections a slot runs: the NBits of
// the draw units Phase.Each visits for it, which is the overall trial count
// of every report the slot produces.
func (p Plan) Injections(slot int) int {
	kind, shard := p.Slot(slot)
	n := p.n
	switch kind {
	case PhasePilot:
		n = p.pilotN
	case PhaseMain:
		n = p.mainN
	}
	units := DrawUnits(n, p.unitBits)
	if shard >= units {
		return 0
	}
	visited := (units - shard + p.shards - 1) / p.shards
	injections := visited * p.unitBits
	if (units-1-shard)%p.shards == 0 {
		injections -= units*p.unitBits - n // the phase's last unit carries the remainder
	}
	return injections
}

// phase returns the phase descriptor and shard of a slot.
func (p Plan) phase(slot int, table *StratumTable) (Phase, int) {
	kind, shard := p.Slot(slot)
	ph := Phase{N: p.n, UnitBits: p.unitBits, Values: true}
	switch kind {
	case PhasePilot:
		ph.N, ph.Strata = p.pilotN, true
	case PhaseMain:
		if table == nil {
			panic(fmt.Sprintf("engine: main-phase slot %d needs a stratum table", slot))
		}
		if want := DrawUnits(p.mainN, p.unitBits); table.MainN != want {
			panic(fmt.Sprintf("engine: stratum table allocates %d draw units, campaign main phase has %d",
				table.MainN, want))
		}
		ph = Phase{
			N: p.mainN, UnitBits: p.unitBits, SeedSalt: MainSeedSalt,
			InputBase: DrawUnits(p.pilotN, p.unitBits),
			Table:     table, Strata: true,
		}
	}
	return ph, shard
}

// perShard reduces a campaign's slot reports, indexed by slot, to one
// partial per shard: a two-phase campaign's (pilot, main) pairs pre-merged,
// the slots themselves otherwise. merge folds a list of reports, in order,
// into a fresh one.
func perShard[R any](p Plan, parts []R, merge func([]R) R) []R {
	if p.Pilots() == 0 {
		return parts
	}
	pairs := make([]R, p.shards)
	for s := range pairs {
		pairs[s] = merge(parts[2*s : 2*s+2])
	}
	return pairs
}

// Fold merges a campaign's slot reports into the campaign report: the
// shard-order fold of the per-shard partials. Float accumulators make the
// association part of the bit-identity contract, which is why there is one.
func Fold[R any](p Plan, parts []R, merge func([]R) R) R {
	return merge(perShard(p, parts, merge))
}

// PilotReport merges the pilot slots' reports in slot order; its strata are
// what Table allocates from. parts is indexed by slot, gated entries unread.
func PilotReport[R any](p Plan, parts []R, merge func([]R) R) R {
	var pilots []R
	for _, slot := range p.wave(false) {
		pilots = append(pilots, parts[slot])
	}
	return merge(pilots)
}

// Run executes the campaign and aggregates its report: the ungated slots
// on goroutines, the allocation table, the gated slots on goroutines, Fold.
func Run[T any, R Mergeable[T]](s Surface[R], o Options) R {
	p := NewPlan(o, s.Campaign().DType.Width())
	return Fold(p, runSlots(s, o, p, concurrently), MergeAll[T, R])
}

// runSlots executes every slot of the plan — the ungated wave, then, under
// the table its pooled strata (or the prior) yield, the gated wave — and
// returns the reports indexed by slot. wave calls fn(0) … fn(n−1).
func runSlots[T any, R Mergeable[T]](s Surface[R], o Options, p Plan, wave func(n int, fn func(i int))) []R {
	parts := make([]R, p.Slots())
	var table *StratumTable
	run := func(slots []int) {
		wave(len(slots), func(i int) { parts[slots[i]] = RunSlot(s, p, slots[i], table) })
	}
	run(p.wave(false))
	if gated := p.wave(true); len(gated) > 0 {
		if p.PriorAllocated() {
			if o.Prior == nil {
				panic("engine: pilot-free campaign needs Options.Prior")
			}
			table = p.Table(o.Prior)
		} else {
			pilot := s.Strata(PilotReport(p, parts, MergeAll[T, R]))
			table = p.Table(pilot)
			if o.OnPilotStrata != nil {
				o.OnPilotStrata(pilot)
			}
		}
		run(gated)
	}
	return parts
}

// concurrently is the wave of Run: one goroutine per slot.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Mergeable is the constraint on a surface's report type R = *T: Merge
// folds another report of the same campaign into the receiver, and the
// zero T is its two-sided identity — it takes its dimensions from the
// first report merged into it.
type Mergeable[T any] interface {
	*T
	Merge(*T)
}

// MergeAll is the one list fold of reports: a fresh report with rs merged
// in, in order. Nil entries (skipped slots) are ignored; the result is nil
// when every entry is nil. Float accumulators make the association part of
// the bit-identity contract, so every fold of slot reports — Run's, a
// fleet's, a test's — goes through here.
func MergeAll[T any, R Mergeable[T]](rs []R) R {
	var total R
	for _, r := range rs {
		if r == nil {
			continue
		}
		if total == nil {
			total = new(T)
		}
		total.Merge(r)
	}
	return total
}

// ShardReports runs every slot of the campaign serially — one pass over the
// plan, the allocation table derived between its two waves exactly as Run
// derives it — and returns the per-shard partials whose shard-order merge is
// Run. It is how a test stands in for a fleet.
func ShardReports[T any, R Mergeable[T]](s Surface[R], o Options) []R {
	p := NewPlan(o, s.Campaign().DType.Width())
	return perShard(p, runSlots(s, o, p, serially), MergeAll[T, R])
}

func serially(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
