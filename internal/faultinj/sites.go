// The datapath's fault model (engine.Model): one latch site of the
// canonical datapath per draw unit — a single injection in the paper's
// per-bit design, every bit of the word under a site mode — evaluated by
// resuming the inference from the faulted layer.
package faultinj

import (
	"math/rand"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// model is one slot's datapath fault model, holding the unit it drew last.
type model struct {
	surface
	ph     engine.Phase
	p      *accel.Profile
	mbu    int
	values int // the slot's share of the value-sample budget
	g      *network.Execution
	site   accel.Site
	block  int
	// fault is the drawn site's fault as Eval injects it at one bit.
	fault layers.Fault
}

func (m *model) SeedMul() int64 { return seedMul }
func (m *model) Values() int    { return m.values }

// Report allocates the slot's report, with strata when the phase records them.
func (m *model) Report() *Report {
	r := newReport(m.bits, m.blocks)
	if m.ph.Strata {
		r.Strata = engine.NewStrata(m.blocks, m.bits, StratumWeights(m.p, m.bits, m.mbu), m.opt.TrackSpread)
	}
	return r
}

// StratumWeights weighs each (block, base bit) stratum of profile p under an
// mbu-bit upset of a bits-wide word: the block's MAC share over its valid bits.
func StratumWeights(p *accel.Profile, bits, mbu int) engine.HexFloats {
	return engine.StratumGrid(p.NumMACLayers(), bits, mbu, func(b, valid int) float64 {
		return p.BlockWeight(b) / float64(valid)
	})
}

// Draw draws the unit's site from the profile — a forced coordinate
// consumes no randomness — or through the custom selector, which setup
// admits only where nothing is forced.
func (m *model) Draw(rng *rand.Rand, g *network.Execution, u engine.Unit) int {
	if m.opt.Selector != nil {
		m.site = m.opt.Selector(rng, m.p)
	} else {
		m.site = m.p.Draw(rng, u.Block, u.Bit, m.mbu)
	}
	m.g, m.block = g, m.p.BlockOfSite(m.site)
	return m.site.Fault.Bit
}

// Single: every datapath site is one MAC's latch.
func (m *model) Single() (int, layers.PlaneFault, bool) {
	f := m.site.Fault
	return m.site.Layer, layers.PlaneFault{OutputIndex: f.OutputIndex, MACStep: f.MACStep, Target: f.Target}, true
}

// Eval resumes the inference from the faulted layer on the slot scratch —
// densely under the Dense oracle — and panics on a fault the layer never
// consumed.
func (m *model) Eval(sc *network.SlotScratch, bit int) *network.Execution {
	f := &m.fault
	*f = m.site.Fault // Applied is per-run state
	f.Bit = bit
	var faulty *network.Execution
	if m.opt.Dense {
		faulty = m.c.Net.ForwardFromDense(m.c.DType, m.g, m.site.Layer, f)
	} else {
		faulty = sc.ForwardFrom(m.g, m.site.Layer, f)
	}
	if !f.Applied {
		panic("faultinj: selected fault site was not exercised: " + m.site.String())
	}
	return faulty
}

func (m *model) ReadsActs() bool { return m.opt.TrackSpread }

func (m *model) Tally(r *Report, in engine.Injection) {
	o, h := in.Outcome, m.block*m.bits+in.Bit
	if in.Faulty == nil || in.Faulty.Masked {
		r.Masked++
	}
	if in.Pre {
		r.PreMasked++
		if r.PreMaskedPerBit == nil {
			r.PreMaskedPerBit = make([]int, m.bits)
		}
		r.PreMaskedPerBit[in.Bit]++
	}
	r.Counts.Add(o)
	r.PerBit[in.Bit].Add(o)
	r.PerBlock[m.block].Add(o)
	r.PerTarget[m.site.Fault.Target].Add(o)
	if r.Strata != nil {
		r.Strata.Counts[h].Add(o)
	}
	if in.Index < m.values {
		gv := m.g.Acts[m.site.Layer].Data[m.site.Fault.OutputIndex]
		r.Values = append(r.Values, ValueRecord{Golden: gv, Faulty: in.Value, SDC: o.Hit[sdc.SDC1]})
	}
	if m.opt.TrackSpread {
		spread := 0.0
		if in.Faulty != nil {
			spread = m.c.finalBlockSpread(m.g, in.Faulty)
		}
		r.SpreadSum[m.block] += spread
		r.SpreadN[m.block]++
		if r.Strata != nil {
			r.Strata.SpreadSum[h] += spread
			r.Strata.SpreadN[h]++
		}
	}
	if m.opt.Detector != nil {
		r.Detection.Tally(o.Hit[sdc.SDC1], m.opt.Detector(in.Faulty))
	}
}

// finalBlockSpread is the Table 5 metric of one faulty execution: the
// fraction of final-block ACT elements that differ bit-wise from golden.
func (c *Campaign) finalBlockSpread(golden, faulty *network.Execution) float64 {
	gActs := c.Net.BlockActs(golden)
	fActs := c.Net.BlockActs(faulty)
	last := len(gActs) - 1
	mismatch := tensor.BitwiseMismatch(gActs[last], fActs[last])
	return float64(mismatch) / float64(gActs[last].Shape.Elems())
}
