package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// expr is the stub surface's report: a leaf names the phase and shard that
// produced it, and Merge records what was folded into what, so a report's
// string is the association it was built in.
type expr struct {
	leaf  string
	parts []string
}

func (e *expr) String() string {
	if e.leaf != "" {
		return e.leaf
	}
	return "(" + strings.Join(e.parts, " ") + ")"
}

func (e *expr) Merge(src *expr) { e.parts = append(e.parts, src.String()) }

// stubSurface hands every slot a stub model: Model counts its calls,
// checks the phase it was handed against the campaign's budget and names
// the slot's report leaf; the model evaluates every injection as golden on
// the one-layer network of stubCampaign and counts them.
type stubSurface struct {
	t      *testing.T
	c      *Campaign
	width  int
	calls  *atomic.Int64
	shards int
	// n, pilotN and units are what the phases must add up to: the budget,
	// its pilot share and the pilot's draw-unit count (the main phase's
	// input base).
	n, pilotN, units int
	injections       *atomic.Int64
}

func (s stubSurface) Campaign() *Campaign         { return s.c }
func (s stubSurface) Strata(*expr) *StrataSummary { return stubStrata(s.width) }
func (s stubSurface) Model(ph Phase, of int) Model[*expr] {
	s.calls.Add(1)
	if of != s.shards {
		s.t.Errorf("Model(%d): campaign has %d shards", of, s.shards)
	}
	kind, wantN, wantBase := "u", s.n, 0
	switch {
	case ph.Table != nil:
		kind, wantN, wantBase = "m", s.n-s.pilotN, s.units
	case ph.Strata:
		kind, wantN = "p", s.pilotN
	}
	if ph.N != wantN || ph.InputBase != wantBase || ph.Values != (ph.Table == nil) || (ph.SeedSalt != 0) != (ph.Table != nil) {
		s.t.Errorf("%s: phase %+v, want N=%d InputBase=%d", kind, ph, wantN, wantBase)
	}
	return &stubModel{stubSurface: s, kind: kind}
}

// stubCampaign is a one-input campaign on a one-layer network, in a 16-bit
// format.
func stubCampaign() *Campaign {
	net := &network.Network{Name: "stub", InShape: tensor.Shape{C: 1, H: 1, W: 1}, Classes: 2,
		Layers: []layers.Layer{layers.NewFC("fc", 1, 2)}}
	return &Campaign{Net: net, DType: numeric.Float16, Inputs: []*tensor.Tensor{tensor.New(net.InShape)}}
}

// stubModel names its report after the phase kind and its first unit's
// index, which is the slot's shard (the test's budgets give every slot a
// unit).
type stubModel struct {
	stubSurface
	kind  string
	g     *network.Execution
	shard int
}

func (m *stubModel) SeedMul() int64                                    { return 1 }
func (m *stubModel) Report() *expr                                     { return &expr{} }
func (m *stubModel) Values() int                                       { return 0 }
func (m *stubModel) ReadsActs() bool                                   { return false }
func (m *stubModel) Single() (int, layers.PlaneFault, bool)            { return 0, layers.PlaneFault{}, false }
func (m *stubModel) Eval(*network.SlotScratch, int) *network.Execution { return m.g }
func (m *stubModel) Draw(_ *rand.Rand, g *network.Execution, u Unit) int {
	m.g = g
	if u.Index < m.shards {
		m.shard = u.Index
	}
	return max(u.Bit, 0)
}
func (m *stubModel) Tally(r *expr, in Injection) {
	m.injections.Add(1)
	r.leaf = fmt.Sprintf("%s%d", m.kind, m.shard)
}

// stubStrata is a one-block uniform-weight pilot: enough for a table of
// either draw-unit size.
func stubStrata(width int) *StrataSummary {
	w := make(HexFloats, width)
	for i := range w {
		w[i] = 1 / float64(width)
	}
	return NewStrata(1, width, w, false)
}

// TestPlanLayoutAndAssociation checks the plan symbolically, for every
// design × evaluation mode × shard count: the slot sequence and gating, that
// Run executes each slot exactly once, and that Run, the fold of standalone
// RunSlot results and the association the design documents are one string.
func TestPlanLayoutAndAssociation(t *testing.T) {
	const width, n = 16, 7 * 16 * 5
	type slot struct {
		phase string
		shard int
	}
	join := func(names []string) string { return "(" + strings.Join(names, " ") + ")" }
	for _, design := range []string{"uniform", "stratified", "prior"} {
		for _, eval := range []EvalMode{EvalPerBit, EvalSiteBitPlane} {
			for _, shards := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("%s/%s/S=%d", design, eval, shards), func(t *testing.T) {
					opt := Options{N: n, Workers: shards, Eval: eval}
					unitBits := 1
					if eval != EvalPerBit {
						unitBits = width
					}
					pilotN := 0
					var wantSlots []slot
					var names []string
					for s := 0; s < shards; s++ {
						switch design {
						case "uniform":
							wantSlots = append(wantSlots, slot{PhaseUniform, s})
							names = append(names, fmt.Sprintf("u%d", s))
						case "stratified":
							opt.Sampling, opt.PilotN, pilotN = SamplingStratified, 7*width+1, 7*width+1
							wantSlots = append(wantSlots, slot{PhasePilot, s}, slot{PhaseMain, s})
							names = append(names, fmt.Sprintf("(p%d m%d)", s, s))
						case "prior":
							opt.Sampling, opt.Prior = SamplingStratified, stubStrata(width)
							wantSlots = append(wantSlots, slot{PhaseMain, s})
							names = append(names, fmt.Sprintf("m%d", s))
						}
					}
					want := join(names)

					p := NewPlan(opt, width)
					if p.Shards() != shards || p.Slots() != len(wantSlots) || p.PriorAllocated() != (design == "prior") {
						t.Fatalf("plan has %d shards, %d slots, prior=%v; want %d, %d", p.Shards(), p.Slots(), p.PriorAllocated(), shards, len(wantSlots))
					}
					pilots := 0
					for i, w := range wantSlots {
						phase, shard := p.Slot(i)
						if phase != w.phase || shard != w.shard || p.Gated(i) != (w.phase == PhaseMain) {
							t.Errorf("slot %d is (%q, %d) gated=%v, want (%q, %d)", i, phase, shard, p.Gated(i), w.phase, w.shard)
						}
						if w.phase == PhasePilot {
							pilots++
						}
					}
					if p.Pilots() != pilots {
						t.Errorf("Pilots() = %d, want %d", p.Pilots(), pilots)
					}
					mustPanic(t, "slot past the end", func() { p.Slot(p.Slots()) })

					var calls, injections atomic.Int64
					s := stubSurface{t: t, c: stubCampaign(), width: width, calls: &calls, shards: shards,
						n: n, pilotN: pilotN, units: DrawUnits(pilotN, unitBits), injections: &injections}
					if got := Run(s, opt).String(); got != want {
						t.Errorf("Run folded %s, want %s", got, want)
					}
					if got := calls.Load(); got != int64(p.Slots()) {
						t.Errorf("Run built %d models for %d slots", got, p.Slots())
					}
					if got := injections.Load(); got != n {
						t.Errorf("Run tallied %d injections, budget %d", got, n)
					}

					// The same plan run slot by slot, gated slots last — as a
					// fleet would — folds to the same string.
					parts := make([]*expr, p.Slots())
					table := p.Table(stubStrata(width))
					if want := DrawUnits(n-pilotN, unitBits); design != "uniform" && table.MainN != want {
						t.Errorf("table allocates %d draw units, want %d", table.MainN, want)
					}
					total := 0
					for _, gated := range []bool{false, true} {
						for i := p.Slots() - 1; i >= 0; i-- {
							if p.Gated(i) == gated {
								before := injections.Load()
								parts[i] = RunSlot[*expr](s, p, i, table)
								if got := int(injections.Load() - before); got != p.Injections(i) {
									t.Errorf("slot %d ran %d injections, Injections says %d", i, got, p.Injections(i))
								}
								total += p.Injections(i)
							}
						}
					}
					if total != n {
						t.Errorf("the slots' Injections sum to %d, budget %d", total, n)
					}
					if got := Fold(p, parts, MergeAll[expr]).String(); got != want {
						t.Errorf("Fold of RunSlot results is %s, want %s", got, want)
					}
					if design != "uniform" {
						mustPanic(t, "gated slot without a table", func() { RunSlot[*expr](s, p, p.Slots()-1, nil) })
					}
				})
			}
		}
	}
}

// TestPilotFreePlanNeedsPrior: a plan laid out pilot-free (PilotN < 0) has
// nothing to derive its table from unless the options carry the prior.
func TestPilotFreePlanNeedsPrior(t *testing.T) {
	var calls atomic.Int64
	s := stubSurface{t: t, c: stubCampaign(), width: 16, calls: &calls, injections: new(atomic.Int64)}
	mustPanic(t, "pilot-free Run without Options.Prior", func() {
		Run(s, Options{N: 64, Workers: 2, Sampling: SamplingStratified, PilotN: -1})
	})
	if calls.Load() != 0 {
		t.Errorf("%d phases ran before the refusal", calls.Load())
	}
}
