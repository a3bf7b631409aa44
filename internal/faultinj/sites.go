// Evaluating a drawn site. The per-bit design — the paper's — draws an
// independent (site, bit) pair per injection; a site-draw campaign draws one
// latch site per draw unit and evaluates every bit position of the format
// at that site. EvalSiteScalar replays the faulted accumulation chain once
// per bit (the reference); EvalSiteBitPlane hands the site to the
// bit-plane evaluator every single-MAC surface shares
// (engine.EvalPlaneSite). The two modes share the same PRNG stream and draw
// sequence and produce bit-identical reports; the bit-plane mode is the
// fast path, the scalar mode its exactness oracle.
package faultinj

import (
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// runUnit evaluates drawn site d of the group batch serves (nil under the
// dense oracle, which re-executes the network per injection) and buffers
// each of its injections at its draw position in results.
func (c *Campaign) runUnit(batch *network.InjectionBatch, golden *network.Execution, d drawnSite, opt Options, valueBudget int, results []injResult) {
	li, fault := d.site.Layer, d.site.Fault
	block := c.Profile().BlockOfSite(d.site)
	gv := golden.Acts[li].Data[fault.OutputIndex]
	// record buffers injection i of the unit: faulty chain value fv, its
	// outcome and its faulty execution (nil for a masked bit-plane one).
	record := func(i int, fv float64, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
		res := injResult{
			outcome: outcome,
			masked:  faulty == nil || faulty.Masked,
			pre:     pre,
			block:   block,
			bit:     fault.Bit + i,
			target:  fault.Target,
		}
		pos := d.injBase + i
		if pos < valueBudget {
			res.hasValue = true
			res.value = ValueRecord{Golden: gv, Faulty: fv, SDC: outcome.Hit[sdc.SDC1]}
		}
		if opt.TrackSpread && faulty != nil {
			res.spread = c.finalBlockSpread(golden, faulty)
		}
		if opt.Detector != nil {
			res.det = opt.Detector(faulty)
		}
		results[pos] = res
	}

	if opt.Eval == engine.EvalSiteBitPlane {
		var exact uint64 // the unit's value-sampled bits
		if n := valueBudget - d.injBase; n >= 64 {
			exact = ^uint64(0)
		} else if n > 0 {
			exact = uint64(1)<<uint(n) - 1
		}
		f := layers.PlaneFault{OutputIndex: fault.OutputIndex, MACStep: fault.MACStep, Target: fault.Target}
		engine.EvalPlaneSite(c.Net, c.DType, golden, li, batch, f, d.nbits, exact, opt.Detector != nil, record)
		return
	}
	for i := 0; i < d.nbits; i++ {
		f := fault // copy; Applied is per-run state
		f.Bit += i
		var faulty *network.Execution
		if batch == nil {
			faulty = c.Net.ForwardFromDense(c.DType, golden, li, &f)
		} else {
			faulty = batch.Run(&f)
		}
		if !f.Applied {
			panic("faultinj: selected fault site was not exercised: " + d.site.String())
		}
		record(i, faulty.Acts[li].Data[f.OutputIndex], sdc.Classify(c.Net, golden, faulty), faulty, false)
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
