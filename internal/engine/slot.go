package engine

import (
	"math/rand"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
)

// Model is a fault surface's fault model for one slot: where its upsets
// land, how one is evaluated and how an evaluated injection is tallied.
// RunSlot builds one per slot and drives it serially, so it may keep
// per-slot scratch and the draw unit it drew last.
type Model[R any] interface {
	// SeedMul is the surface's shard multiplier (Phase.Rand), which keeps
	// the surfaces' PRNG streams apart under equal campaign seeds.
	SeedMul() int64
	// Report allocates the slot's report, with the strata grid when the
	// phase records strata.
	Report() R
	// Values is the number of the slot's first injections whose faulty
	// value Tally reads (Injection.Value).
	Values() int
	// Draw draws the site of unit u under its golden execution g — forcing
	// u.Block and u.Bit when non-negative, which consumes no randomness —
	// and returns the base bit of its upset.
	Draw(rng *rand.Rand, g *network.Execution, u Unit) (bit int)
	// Single returns the MAC layer and latch of the drawn site when its
	// upset corrupts exactly one MAC's latch, the sites EvalSiteBitPlane
	// replays bit-parallel.
	Single() (li int, f layers.PlaneFault, ok bool)
	// Eval runs the faulty inference of the drawn site with its upset's
	// base bit at bit, through the slot's scratch sc (its execution is the
	// scratch's, see network.SlotScratch).
	Eval(sc *network.SlotScratch, bit int) *network.Execution
	// Tally folds one injection of the drawn site into r. Its Faulty
	// execution is valid only until Tally returns: the slot's next
	// propagation restores the scratch it lives in, so Tally must not keep
	// it or anything reached through its Acts.
	Tally(r R, in Injection)
	// ReadsActs reports whether Tally reads the faulty execution's
	// activations past the struck layer (a spread metric). A detector's
	// reads are the plan's (Options.Detector); a slot whose injections
	// nothing else reads them of runs its scratch output-only
	// (network.SlotScratch.OutputOnly).
	ReadsActs() bool
}

// outputOnlyWalk lets RunSlot run a slot's scratch output-only when nothing
// reads faulty activations. A variable only so tests can compare against
// the exact walk.
var outputOnlyWalk = true

// Injection is one evaluated injection, as Model.Tally receives it.
type Injection struct {
	// Index is the injection's position in the slot, Bit its upset's base
	// bit.
	Index, Bit int
	// Value is the faulty output of the struck element of a Single site:
	// golden's when Pre.
	Value   float64
	Outcome sdc.Outcome
	// Faulty is the faulty execution: nil when the injection was proven
	// masked without one, which happens only without a detector. It is the
	// slot scratch's, valid until Tally returns (see Model.Tally).
	Faulty *network.Execution
	// Pre is set when the analytical pre-screen proved the injection
	// masked (EvalPlaneSite).
	Pre bool
}

// RunSlot executes one slot of the plan serially and returns its report;
// table is the plan's allocation (Table) for a gated slot and ignored
// otherwise. It is the only way a phase of a shard gets run, by Run and by
// a distributed worker alike, so slots can execute anywhere — goroutines,
// processes, machines — and Fold still reproduces the one campaign.
//
// It is the one loop behind every surface: each draw unit of the slot
// (Phase.Each) has its golden execution resolved through the surface's
// Campaign and its site drawn, and
// every injection of the unit is evaluated and tallied at once, in draw
// order, bits ascending. Evaluation consumes no randomness, so the draws
// are the model's alone. Under EvalSiteBitPlane a Single site goes to
// EvalPlaneSite on the slot's one InjectionBatch per (input, MAC layer);
// every other site runs per bit through Model.Eval. Every faulty inference
// of the slot runs on its one network.SlotScratch, so once warm a slot
// allocates nothing per injection; the scratch is output-only unless a
// detector or the model (Model.ReadsActs) reads faulty activations.
func RunSlot[R any](s Surface[R], p Plan, slot int, table *StratumTable) R {
	ph, shard := p.phase(slot, table)
	c, m := s.Campaign(), s.Model(ph, p.shards)
	net, dt := c.Net, c.DType
	rng := ph.Rand(p.seed, shard, m.SeedMul())
	r, values := m.Report(), m.Values()
	sc := net.NewSlotScratch(dt)
	if outputOnlyWalk && !p.needExec && !m.ReadsActs() {
		sc.OutputOnly()
	}
	batches := map[[2]int]*network.InjectionBatch{}
	index := 0 // the slot position of the unit's first injection
	ph.Each(shard, p.shards, len(c.Inputs), func(u Unit) {
		g := c.Golden(u.Input)
		base := m.Draw(rng, g, u)
		li, f, single := m.Single()
		if p.plane && single {
			key := [2]int{u.Input, li}
			batch := batches[key]
			if batch == nil {
				batch = net.NewInjectionBatch(dt, g, li)
				batches[key] = batch
			}
			var exact uint64 // the bits whose faulty value Tally reads
			if n := values - index; n >= 64 {
				exact = ^uint64(0)
			} else if n > 0 {
				exact = uint64(1)<<uint(n) - 1
			}
			EvalPlaneSite(net, dt, g, li, batch, sc, f, u.NBits, exact, p.needExec,
				func(bit int, fv float64, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
					m.Tally(r, Injection{Index: index + bit, Bit: bit, Value: fv, Outcome: outcome, Faulty: faulty, Pre: pre})
				})
			index += u.NBits
			return
		}
		for bit := base; bit < base+u.NBits; bit++ {
			faulty := m.Eval(sc, bit)
			in := Injection{Index: index, Bit: bit, Outcome: sdc.Classify(net, g, faulty), Faulty: faulty}
			if single {
				in.Value = faulty.Acts[li].Data[f.OutputIndex]
			}
			m.Tally(r, in)
			index++
		}
	})
	return r
}
