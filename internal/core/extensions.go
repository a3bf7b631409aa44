package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/precision"
	"repro/internal/rowstat"
	"repro/internal/sdc"
)

// The experiments in this file go beyond the paper's published artifacts:
// an ablation isolating the LRN masking effect the paper infers from
// cross-network comparisons (§5.1.4), the §6.1 "just-enough format"
// recommendation made executable, and the analytic reuse factors behind
// the Table 8 buffer vulnerability.

// ---- Ablation: LRN masking ----

// AblationResult compares a network against its ablated variant.
type AblationResult struct {
	Network  string
	Ablation models.Ablation
	DType    numeric.Type
	// BaselineSDC and AblatedSDC are layer-1 SDC-1 probabilities (the
	// LRN effect concentrates in the early layers).
	BaselineSDC float64
	AblatedSDC  float64
}

// AblateLRN measures layer-1 SDC probability with and without the
// normalization layers. The paper attributes AlexNet/CaffeNet's low
// early-layer SDC to LRN; removing it while keeping the weights identical
// tests that attribution directly.
func AblateLRN(cfg Config, netName string, dt numeric.Type) (AblationResult, error) {
	layer1 := func(net *network.Network) float64 {
		c := faultinj.New(net, dt, inputsFor(netName, cfg.Inputs))
		r := c.Run(faultinj.Options{
			Options:  engine.Options{N: cfg.Injections, Seed: cfg.Seed},
			Selector: faultinj.BlockSelector(0),
		})
		return r.Counts.Probability(sdc.SDC1)
	}
	baseline, err := buildNet(cfg, netName)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Network: netName, Ablation: models.WithoutLRN, DType: dt,
		BaselineSDC: layer1(baseline),
		AblatedSDC:  layer1(models.BuildAblated(netName, models.WithoutLRN)),
	}, nil
}

// Format renders the ablation comparison.
func (r AblationResult) Format() string {
	return fmt.Sprintf("%s/%s layer-1 SDC-1: baseline %s vs %s %s\n",
		r.Network, r.DType, pct(r.BaselineSDC), r.Ablation, pct(r.AblatedSDC))
}

// ---- §6.1 implication: just-enough numeric formats ----

// FormatRecommendation profiles a network's value ranges under dt (DOUBLE
// in the paper's cells) and recommends the least redundant covering format
// (precision package).
func FormatRecommendation(cfg Config, netName string, dt numeric.Type) (precision.Recommendation, error) {
	ranges, err := blockRanges(cfg, netName, dt)
	if err != nil {
		return precision.Recommendation{}, err
	}
	return precision.Recommend(ranges, numeric.Types), nil
}

// FormatRecommendations renders the recommendation per cell.
func FormatRecommendations(cfg Config, cells []Cell) (Text, error) {
	var out Text
	for _, c := range cells {
		rec, err := FormatRecommendation(cfg, c.Net, c.DType)
		if err != nil {
			return "", err
		}
		out += Text(fmt.Sprintf("%s:\n%s", c.Net, rec.Format()))
	}
	return out, nil
}

// ---- Row-stationary schedule (rowstat) ----

// ScheduleReport renders the row-stationary mapping and buffer traffic of
// each network on the 16 nm Eyeriss array.
func ScheduleReport() Text {
	out := ""
	for _, name := range models.Names {
		s := rowstat.New(models.Build(name), rowstat.Eyeriss16nm)
		out += fmt.Sprintf("%s on %dx%d PEs:\n%s%s",
			name, rowstat.Eyeriss16nm.Rows, rowstat.Eyeriss16nm.Cols,
			s.Format(), s.FormatTraffic())
	}
	return Text(out)
}

// Table8Residency recomputes Table 8 with cycle-accurate residency weights
// from the row-stationary scheduler instead of the MAC-count proxy — an
// ablation of the fault-timing model.
func Table8Residency(cfg Config, on []Cell) (Table8Cells, error) {
	var cells Table8Cells
	for _, c := range on {
		name, dt := c.Net, c.DType
		net, err := buildNet(cfg, name)
		if err != nil {
			return nil, err
		}
		camp := &eyeriss.Campaign{
			Campaign:  engine.Campaign{Net: net, DType: dt, Inputs: inputsFor(name, cfg.Inputs)},
			Residency: rowstat.New(models.Build(name), rowstat.Eyeriss16nm).ResidencyWeights(),
		}
		for _, b := range eyeriss.Buffers {
			r := camp.Run(b, eyeriss.Options{N: cfg.Injections, Seed: cfg.Seed})
			p := r.Counts.Probability(sdc.SDC1)
			cells = append(cells, Table8Cell{
				Network: name, Buffer: b, SDCProb: p,
				FIT: eyeriss.FITComponent(eyeriss.Params16nm, b, p).FIT(),
			})
		}
	}
	return cells, nil
}

// ---- Reuse factors behind Table 8 ----

// ReuseReport renders the analytic per-layer reuse factors of each
// network's dataflow.
func ReuseReport() Text {
	out := ""
	for _, name := range models.Names {
		out += fmt.Sprintf("%s:\n%s", name, eyeriss.FormatReuse(eyeriss.Reuse(models.Build(name))))
	}
	return Text(out)
}

// ---- Per-latch breakdown of datapath faults ----

// LatchRow is the SDC probability of faults striking one ALU latch class.
type LatchRow struct {
	Network string
	DType   numeric.Type
	Target  layers.Target
	SDCProb float64
	Trials  int
}

// LatchBreakdown splits a datapath campaign's SDC probability by the ALU
// latch struck (weight operand, activation operand, multiplier output,
// accumulator) — the per-latch sensitivity the SLH model assumes is
// uniform across latch planes, measured. The per-latch tallies are raw
// counts, so the campaigns are uniform.
func LatchBreakdown(cfg Config, cells []Cell) (LatchRows, error) {
	var rows LatchRows
	for _, c := range cells {
		r, err := run(uniformSpec(cfg, c.Net, c.DType))
		if err != nil {
			return nil, err
		}
		for tgt, counts := range r.Datapath.PerTarget {
			rows = append(rows, LatchRow{
				Network: c.Net, DType: c.DType, Target: layers.Target(tgt),
				SDCProb: counts.Probability(sdc.SDC1),
				Trials:  counts.Trials,
			})
		}
	}
	return rows, nil
}

// LatchRows is the per-latch table.
type LatchRows []LatchRow

// Format renders the per-latch table.
func (rows LatchRows) Format() string {
	t := &table{}
	t.add("Network", "DataType", "Latch", "Trials", "SDC-1")
	for _, r := range rows {
		t.addf("%s\t%s\t%s\t%d\t%s", r.Network, r.DType, r.Target, r.Trials, pct(r.SDCProb))
	}
	return t.String()
}
