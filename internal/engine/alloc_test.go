// Allocation gate: what a warm slot allocates per injection, per surface,
// format and evaluation design. A faulty inference runs on the slot's one
// network.SlotScratch and every surface reuses its fronts, so a warm
// injection allocates nothing, masked or not.
package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// allocBudget is each gate cell's ceiling on allocations per injection,
// set from the measurement of the change that introduced the slot scratch
// (at most 0.001 per-bit, 0.009 site-bitplane: what remains is a slice or
// buffer a late draw grows or first touches, not a per-injection cost).
// A budget may only go down; raising one needs an argued reason.
var allocBudget = map[string]float64{
	"datapath/FLOAT16/per-bit":        0.005,
	"datapath/FLOAT16/site-bitplane":  0.02,
	"datapath/32b_rb10/per-bit":       0.005,
	"datapath/32b_rb10/site-bitplane": 0.02,
	"psum/FLOAT16/per-bit":            0.005,
	"psum/FLOAT16/site-bitplane":      0.02,
	"psum/32b_rb10/per-bit":           0.005,
	"psum/32b_rb10/site-bitplane":     0.02,
	"systolic/FLOAT16/per-bit":        0.005,
	"systolic/FLOAT16/site-bitplane":  0.02,
	"systolic/32b_rb10/per-bit":       0.005,
	"systolic/32b_rb10/site-bitplane": 0.02,
}

// The gate differences two warm runs of one slot whose draws are a prefix
// of each other's, so everything a slot allocates once — its model, report,
// scratch buffers, batches — cancels and only the injections between
// allocGateFrom and allocGateTo are counted.
const (
	allocGateFrom = 1024
	allocGateTo   = 3072
)

// gateSlot runs slot 0 of a one-shard campaign of n injections.
type gateSlot func(n int)

func slotRunner[R any](s engine.Surface[R], o engine.Options) gateSlot {
	return func(n int) {
		o.N = n
		engine.RunSlot(s, engine.NewPlan(o, s.Campaign().DType.Width()), 0, nil)
	}
}

// gateCells builds every cell's slot runner: the datapath, the Eyeriss
// PSum REG and the weight-stationary systolic array on ConvNet.
func gateCells(dt numeric.Type, eval engine.EvalMode) map[string]gateSlot {
	o := engine.Options{Seed: 11, Workers: 1, Eval: eval}
	ins := fixtureInputsFor(fixtureNet)
	dp, dpOpt := faultinj.New(models.Build(fixtureNet), dt, ins).Surface(faultinj.Options{Options: o})
	bc := &eyeriss.Campaign{Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: ins}}
	bs, bsOpt := bc.Surface(eyeriss.PSumReg, o)
	sc := &systolic.Campaign{Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: ins}, Flow: systolic.WeightStationary}
	ss, ssOpt := sc.Surface(o)
	return map[string]gateSlot{
		"datapath": slotRunner(dp, dpOpt),
		"psum":     slotRunner(bs, bsOpt),
		"systolic": slotRunner(ss, ssOpt),
	}
}

// perInjection returns the allocations and bytes per injection of the
// injections a warm run of n2 adds to one of n1.
func perInjection(run gateSlot, n1, n2 int) (allocs, bytes float64) {
	measure := func(n int) (allocs float64, bytes int64) {
		run(n) // goldens, golden chains and quantized parameters
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(1, func() { run(n) }) // a warm-up run and a counted one
		runtime.ReadMemStats(&after)
		return allocs, int64(after.TotalAlloc-before.TotalAlloc) / 2
	}
	a1, b1 := measure(n1)
	a2, b2 := measure(n2)
	return (a2 - a1) / float64(n2-n1), float64(b2-b1) / float64(n2-n1)
}

func TestSlotAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations, so counts differ from a plain build")
	}
	if testing.Short() {
		t.Skip("runs every gate cell four times")
	}
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		for _, eval := range []engine.EvalMode{engine.EvalPerBit, engine.EvalSiteBitPlane} {
			design := "per-bit"
			if eval != engine.EvalPerBit {
				design = string(eval)
			}
			for surface, run := range gateCells(dt, eval) {
				cell := fmt.Sprintf("%s/%s/%s", surface, dt, design)
				allocs, bytes := perInjection(run, allocGateFrom, allocGateTo)
				t.Logf("%s: %.3f allocs, %.0f B per injection", cell, allocs, bytes)
				if budget, ok := allocBudget[cell]; !ok {
					t.Errorf("%s: no budget", cell)
				} else if allocs > budget {
					t.Errorf("%s: %.3f allocations per injection, budget %.3f", cell, allocs, budget)
				}
			}
		}
	}
}

// TestMaskedInjectionAllocatesNothing evaluates, classifies and tallies one
// masked datapath injection through a warm slot scratch, as RunSlot's
// per-bit loop does, and requires that it allocate nothing.
func TestMaskedInjectionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations, so counts differ from a plain build")
	}
	dt := numeric.Float16
	c := faultinj.New(models.Build(fixtureNet), dt, fixtureInputsFor(fixtureNet))
	s, o := c.Surface(faultinj.Options{Options: engine.Options{N: 1, Seed: 1, Workers: 1}})
	ph := engine.Phase{N: 1, UnitBits: 1}
	m := s.Model(ph, 1)
	r := m.Report()
	g := c.Golden(0)
	sc := c.Net.NewSlotScratch(dt)
	rng := rand.New(rand.NewSource(o.Seed))
	for tries := 0; tries < 200; tries++ {
		// Low mantissa bits of a late MAC step: usually masked downstream
		// rather than inside the chain, so the walk runs.
		bit := m.Draw(rng, g, engine.Unit{Block: -1, Bit: 0, NBits: 1})
		inject := func() {
			faulty := m.Eval(sc, bit)
			m.Tally(r, engine.Injection{Bit: bit, Outcome: sdc.Classify(c.Net, g, faulty), Faulty: faulty})
		}
		inject()
		if faulty := m.Eval(sc, bit); !faulty.Masked {
			continue
		}
		if got := testing.AllocsPerRun(100, inject); got != 0 {
			t.Fatalf("a warm masked datapath injection allocated %v times", got)
		}
		return
	}
	t.Fatal("no masked site in 200 draws")
}
