package core

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/fit"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// The two equal-budget comparisons beyond the paper: what the stratified
// sampling design buys over the paper's i.i.d. one, and what the dataflow —
// not the area — does to error propagation (the resident-vs-moving-operand
// comparison of arXiv 2405.15381).

// geomean accumulates the geometric mean of the positive values added.
type geomean struct {
	logSum float64
	n      int
}

func (g *geomean) add(v float64) {
	if v > 0 {
		g.logSum += math.Log(v)
		g.n++
	}
}

func (g geomean) value() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Exp(g.logSum / float64(g.n))
}

// ---- Sampling efficiency ----

// SamplingRow compares, for one cell and one injection budget, the SDC-1
// estimate and 95% half-width of the uniform campaign (pooled proportion)
// and of the stratified one (Horvitz–Thompson over its strata).
type SamplingRow struct {
	Network                  string
	DType                    numeric.Type
	Uniform, UniformCI       float64
	Stratified, StratifiedCI float64
}

// CIRatio is how many times narrower the stratified interval is; 0 when it
// is empty.
func (r SamplingRow) CIRatio() float64 {
	if r.StratifiedCI == 0 {
		return 0
	}
	return r.UniformCI / r.StratifiedCI
}

// SamplingRows is the sampling-efficiency table.
type SamplingRows []SamplingRow

// Sampling runs each cell's datapath campaign under both designs. The
// stratified half is the campaign Fig. 3 reads; the uniform half is XArch's
// row-stationary leg.
func Sampling(cfg Config, cells []Cell) (SamplingRows, error) {
	rows := make(SamplingRows, len(cells))
	for i, c := range cells {
		uni, err := run(uniformSpec(cfg, c.Net, c.DType))
		if err != nil {
			return nil, err
		}
		str, err := run(stratifiedSpec(cfg, c.Net, c.DType))
		if err != nil {
			return nil, err
		}
		rows[i] = SamplingRow{Network: c.Net, DType: c.DType}
		rows[i].Uniform, rows[i].UniformCI = uni.SDCEstimate(sdc.SDC1)
		rows[i].Stratified, rows[i].StratifiedCI = str.SDCEstimate(sdc.SDC1)
	}
	return rows, nil
}

// GeomeanCIRatio is the geometric mean of the rows' defined CI ratios.
func (rows SamplingRows) GeomeanCIRatio() float64 {
	var g geomean
	for _, r := range rows {
		g.add(r.CIRatio())
	}
	return g.value()
}

// Format renders the comparison.
func (rows SamplingRows) Format() string {
	t := &table{}
	t.add("Network", "DataType", "Uniform SDC-1", "±CI", "Stratified SDC-1", "±CI", "CI ratio")
	for _, r := range rows {
		t.addf("%s\t%s\t%.3f%%\t%.3f%%\t%.3f%%\t%.3f%%\t%.2fx", r.Network, r.DType,
			100*r.Uniform, 100*r.UniformCI, 100*r.Stratified, 100*r.StratifiedCI, r.CIRatio())
	}
	return t.String() + fmt.Sprintf("geomean CI ratio: %.2fx\n", rows.GeomeanCIRatio())
}

// CSV renders the comparison.
func (rows SamplingRows) CSV() string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Network, r.DType.String(),
			f(r.Uniform), f(r.UniformCI), f(r.Stratified), f(r.StratifiedCI), f(r.CIRatio())}
	}
	return writeCSV([]string{"network", "dtype",
		"uniform_sdc1", "uniform_ci", "stratified_sdc1", "stratified_ci", "ci_ratio"}, out)
}

// ---- Cross-architecture comparison ----

// xarchArray is the systolic array sized to the row-stationary comparison
// point: 42 × 32 = 1344 PEs, matching eyeriss.Params16nm.NumPEs with the
// same four latches per PE, so every architecture exposes the same latch-bit
// count at every word width. A campaign.Spec cannot carry an array size,
// which is why the systolic legs are built by hand.
var xarchArray = systolic.Params{Rows: 42, Cols: 32}

// XArchLeg is one architecture's leg of a comparison: "row" is the
// row-stationary datapath, "weight", "output" and "input" the systolic
// dataflows.
type XArchLeg struct {
	Arch string
	// SDC1 and CI are the SDC-1 estimate and 95% half-width at the shared
	// injection budget and seed; FIT is the Eq. 1 term at the shared
	// latch-bit budget.
	SDC1, CI, FIT float64
	// ArchMasked is the share of injections masked architecturally (a
	// pipeline fault at a column-tile edge with no downstream PE) — a sink
	// the row-stationary model has no analogue of.
	ArchMasked float64
}

// XArchRow compares the architectures on one cell.
type XArchRow struct {
	Network string
	DType   numeric.Type
	// LatchBits is the row-stationary datapath's exposed latch-bit count —
	// the raw-fault budget of the comparison — and ArrayBits the systolic
	// array's. The systolic legs are run only when the two are equal:
	// unequal areas are reported, not compared.
	LatchBits, ArrayBits int64
	Legs                 []XArchLeg
}

// XArchRows is the cross-architecture table.
type XArchRows []XArchRow

// XArch runs, per cell, the row-stationary datapath campaign and the three
// systolic dataflows on the equal-area array, all at one injection budget
// and seed, so the FIT ratios isolate the dataflow.
func XArch(cfg Config, cells []Cell) (XArchRows, error) { return xarch(cfg, cells, xarchArray) }

func xarch(cfg Config, cells []Cell, array systolic.Params) (XArchRows, error) {
	rows := make(XArchRows, len(cells))
	for i, c := range cells {
		r, err := run(uniformSpec(cfg, c.Net, c.DType))
		if err != nil {
			return nil, err
		}
		budget := eyeriss.Params16nm.Datapath(c.DType).TotalLatchBits()
		leg := func(arch string, counts sdc.Counts, strata *engine.StrataSummary, archMasked int) XArchLeg {
			p, ci := engine.SDCEstimate(counts, strata, sdc.SDC1)
			return XArchLeg{Arch: arch, SDC1: p, CI: ci, FIT: fit.Rate(budget, p),
				ArchMasked: float64(archMasked) / float64(cfg.Injections)}
		}
		rows[i] = XArchRow{Network: c.Net, DType: c.DType, Legs: []XArchLeg{leg("row", r.Counts(), r.Strata(), 0)},
			LatchBits: budget, ArrayBits: systolic.LatchBits(array, c.DType)}
		if rows[i].ArrayBits != budget {
			continue
		}

		net, err := buildNet(cfg, c.Net)
		if err != nil {
			return nil, err
		}
		inputs := inputsFor(c.Net, cfg.Inputs)
		for flow := systolic.Dataflow(0); flow < systolic.NumDataflows; flow++ {
			camp := &systolic.Campaign{Campaign: engine.Campaign{Net: net, DType: c.DType, Inputs: inputs}, Array: array, Flow: flow}
			sr := camp.Run(systolic.Options{N: cfg.Injections, Seed: cfg.Seed})
			rows[i].Legs = append(rows[i].Legs, leg(flow.String(), sr.Counts, sr.Strata, sr.ArchMasked))
		}
	}
	return rows, nil
}

// FITRatio is a leg's FIT over the row's row-stationary FIT — above 1, the
// dataflow turns more upsets into SDCs; 0 when the row-stationary FIT is 0.
func (r XArchRow) FITRatio(leg XArchLeg) float64 {
	if r.Legs[0].FIT == 0 {
		return 0
	}
	return leg.FIT / r.Legs[0].FIT
}

// GeomeanFITRatio is the geometric mean, over the rows that compare arch,
// of its positive FIT ratios.
func (rows XArchRows) GeomeanFITRatio(arch string) float64 {
	var g geomean
	for _, r := range rows {
		for _, leg := range r.Legs[1:] {
			if leg.Arch == arch {
				g.add(r.FITRatio(leg))
			}
		}
	}
	return g.value()
}

// Format renders one line per leg, then the per-dataflow geometric means.
func (rows XArchRows) Format() string {
	t := &table{}
	t.add("Network", "DataType", "LatchBits", "Arch", "SDC-1", "±CI", "FIT", "FIT ratio", "Arch-masked")
	out := ""
	for _, r := range rows {
		for _, leg := range r.Legs {
			t.addf("%s\t%s\t%d\t%s\t%.3f%%\t%.3f%%\t%.4g\t%.2fx\t%s", r.Network, r.DType, r.LatchBits,
				leg.Arch, 100*leg.SDC1, 100*leg.CI, leg.FIT, r.FITRatio(leg), pct(leg.ArchMasked))
		}
		if r.ArrayBits != r.LatchBits {
			out += fmt.Sprintf("%s/%s: systolic legs skipped, the array's %d latch bits are not the %d-bit budget\n",
				r.Network, r.DType, r.ArrayBits, r.LatchBits)
		}
	}
	out = t.String() + out
	for flow := systolic.Dataflow(0); flow < systolic.NumDataflows; flow++ {
		out += fmt.Sprintf("geomean FIT ratio, %s-stationary vs row-stationary: %.2fx\n",
			flow, rows.GeomeanFITRatio(flow.String()))
	}
	return out
}

// CSV renders one record per leg.
func (rows XArchRows) CSV() string {
	var out [][]string
	for _, r := range rows {
		for _, leg := range r.Legs {
			out = append(out, []string{r.Network, r.DType.String(), fmt.Sprint(r.LatchBits), leg.Arch,
				f(leg.SDC1), f(leg.CI), f(leg.FIT), f(r.FITRatio(leg)), f(leg.ArchMasked)})
		}
	}
	return writeCSV([]string{"network", "dtype", "latch_bits", "arch",
		"sdc1", "ci", "fit", "fit_ratio", "arch_masked"}, out)
}
