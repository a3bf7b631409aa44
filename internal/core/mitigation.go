package core

import (
	"fmt"
	"math"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/fit"
	"repro/internal/harden"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// ---- E11: Figure 8 — SED precision and recall ----

// Fig8Row is one network's detector scores, averaged across data types and
// hardware components as in the paper's Figure 8.
type Fig8Row struct {
	Network   string
	Precision float64
	Recall    float64
	// PerDType keeps the per-format breakdown for inspection.
	PerDType map[numeric.Type]faultinj.Detection
}

// SEDDataTypes are the formats the paper evaluates the detector on: the
// three FP types plus 32b_rb10. (16b_rb10 and 32b_rb26 suppress the value
// symptoms, and ConvNet lacks them — §6.2.)
var SEDDataTypes = []numeric.Type{numeric.Double, numeric.Float, numeric.Float16, numeric.Fx32RB10}

// SEDNetworks are the networks of the Figure 8 evaluation.
var SEDNetworks = []string{"AlexNet", "CaffeNet", "NiN"}

// Fig8Rows is the Figure 8 dataset.
type Fig8Rows []Fig8Row

// Fig8 learns the symptom detector per cell and evaluates it against
// datapath and buffer fault campaigns, one row per run of cells on the same
// network.
func Fig8(cfg Config, cells []Cell) (Fig8Rows, error) {
	var rows Fig8Rows
	var agg faultinj.Detection // over the cells of the last row
	for _, cell := range cells {
		name, dt := cell.Net, cell.DType
		if len(rows) == 0 || rows[len(rows)-1].Network != name {
			rows = append(rows, Fig8Row{Network: name, PerDType: map[numeric.Type]faultinj.Detection{}})
			agg = faultinj.Detection{}
		}
		row := &rows[len(rows)-1]
		net, checker, err := learnDetector(cfg, name, dt)
		if err != nil {
			return nil, err
		}

		var forType faultinj.Detection
		// Datapath faults.
		c := faultinj.New(net, dt, inputsFor(name, cfg.Inputs))
		r := c.Run(faultinj.Options{Options: engine.Options{N: cfg.Injections, Seed: cfg.Seed, Detector: checker}})
		forType.Merge(r.Detection)
		// Buffer faults (the two dominant classes: Global Buffer and
		// Filter SRAM).
		camp := &eyeriss.Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: inputsFor(name, cfg.Inputs)}}
		for _, b := range []eyeriss.Buffer{eyeriss.GlobalBuffer, eyeriss.FilterSRAM} {
			br := camp.Run(b, eyeriss.Options{
				N: cfg.Injections / 2, Seed: cfg.Seed + int64(b),
				Detector: checker,
			})
			forType.Merge(br.Detection)
		}
		row.PerDType[dt] = forType
		agg.Merge(forType)
		row.Precision, row.Recall = agg.Precision(), agg.Recall()
	}
	return rows, nil
}

// learnDetector builds a network and trains the §6.2 symptom detector on
// it for one format, returned as the campaigns' Detector hook. Training
// images are drawn from an index range disjoint from the campaign inputs,
// so the learned ranges generalize rather than memorize.
func learnDetector(cfg Config, name string, dt numeric.Type) (*network.Network, func(*network.Execution) bool, error) {
	net, err := buildNet(cfg, name)
	if err != nil {
		return nil, nil, err
	}
	n := cfg.Inputs * 4
	if n < 8 {
		n = 8
	}
	det := detect.Learn(net, dt, trainingInputs(name, n), detect.DefaultCushion)
	return net, func(e *network.Execution) bool { return det.Check(net, e) }, nil
}

// Format renders the precision/recall table.
func (rows Fig8Rows) Format() string {
	t := &table{}
	t.add("Network", "Precision", "Recall")
	for _, r := range rows {
		t.addf("%s\t%s\t%s", r.Network, pct(r.Precision), pct(r.Recall))
	}
	return t.String()
}

// ---- E12-E14: Table 9 and Figure 9 — selective latch hardening ----

// Table9Designs is the hardened latch design space.
type Table9Designs []harden.Design

// Table9 returns the hardened latch design space.
func Table9() Table9Designs {
	return Table9Designs{harden.Baseline, harden.RCC, harden.SEUT, harden.TMR}
}

// Format renders the design space.
func (designs Table9Designs) Format() string {
	t := &table{}
	t.add("Latch Type", "Area Overhead", "FIT Reduction")
	for _, d := range designs {
		t.addf("%s\t%.2fx\t%gx", d.Name, d.Area, d.Reduction)
	}
	return t.String()
}

// Fig9Result holds the SLH exploration for one network and format.
type Fig9Result struct {
	Network string
	DType   numeric.Type
	// Sensitivity is the per-bit FIT vector measured by the Fig. 4
	// campaign.
	Sensitivity harden.Sensitivity
	// Beta characterizes its asymmetry (Fig. 9a annotation).
	Beta float64
	// CurveX/CurveY is the perfect-protection curve of Fig. 9a.
	CurveX, CurveY []float64
	// Targets and the per-design overhead series of Fig. 9b/9c; NaN marks
	// unreachable targets.
	Targets  []float64
	Overhead map[string][]float64
}

// Fig9Targets is the sweep of whole-word FIT reduction targets (the x-axis
// of Fig. 9b/9c: 1x .. 100x).
var Fig9Targets = []float64{1.5, 2, 4, 6.3, 10, 20, 37, 60, 100}

// Fig9 measures per-bit sensitivity and explores the hardening design
// space for one network and format.
func Fig9(cfg Config, netName string, dt numeric.Type) (*Fig9Result, error) {
	f4, err := Fig4(cfg, netName, dt)
	if err != nil {
		return nil, err
	}
	s := harden.Sensitivity(f4.Sensitivity())
	xs, ys := s.ProtectionCurve()
	res := &Fig9Result{
		Network: netName, DType: dt,
		Sensitivity: s,
		Beta:        s.Beta(),
		CurveX:      xs, CurveY: ys,
		Targets:  Fig9Targets,
		Overhead: map[string][]float64{},
	}
	for _, d := range harden.Designs {
		d := d
		res.Overhead[d.Name] = harden.OverheadCurve(s, Fig9Targets, func(s harden.Sensitivity, t float64) (harden.Assignment, bool) {
			return harden.SingleDesignPlan(s, d, t)
		})
	}
	res.Overhead["Multi"] = harden.OverheadCurve(s, Fig9Targets, harden.MultiPlan)
	return res, nil
}

// Format renders the Fig. 9 exploration.
func (r *Fig9Result) Format() string {
	t := &table{}
	t.add("TargetReduction", "RCC", "SEUT", "TMR", "Multi")
	fmtOv := func(v float64) string {
		if math.IsNaN(v) {
			return "unreachable"
		}
		return fmt.Sprintf("%.1f%%", v*100)
	}
	for i, target := range r.Targets {
		t.addf("%gx\t%s\t%s\t%s\t%s", target,
			fmtOv(r.Overhead["RCC"][i]), fmtOv(r.Overhead["SEUT"][i]),
			fmtOv(r.Overhead["TMR"][i]), fmtOv(r.Overhead["Multi"][i]))
	}
	return fmt.Sprintf("%s / %s (β=%.2f) latch area overhead vs FIT reduction target:\n%s",
		r.Network, r.DType, r.Beta, t.String())
}

// ---- E15: SED FIT reduction on Eyeriss ----

// SEDFITRow compares a configuration's Eyeriss FIT with and without the
// symptom detector (the paper's 8.55 → 0.35 style numbers for FLOAT).
type SEDFITRow struct {
	Network   string
	DType     numeric.Type
	FITBefore float64
	FITAfter  float64
	Recall    float64
}

// SEDFITRows is the before/after comparison table.
type SEDFITRows []SEDFITRow

// SEDFIT estimates the detector's FIT reduction on each cell.
func SEDFIT(cfg Config, cells []Cell) (SEDFITRows, error) {
	rows := make(SEDFITRows, len(cells))
	for i, c := range cells {
		var err error
		if rows[i], err = sedFIT(cfg, c.Net, c.DType); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// sedFIT measures one cell: every detected SDC-causing fault stops counting
// toward the SDC probability, so each component's effective SDC probability
// scales by (1 - recall).
func sedFIT(cfg Config, netName string, dt numeric.Type) (SEDFITRow, error) {
	net, checker, err := learnDetector(cfg, netName, dt)
	if err != nil {
		return SEDFITRow{}, err
	}

	// Datapath component.
	c := faultinj.New(net, dt, inputsFor(netName, cfg.Inputs))
	r := c.Run(faultinj.Options{Options: engine.Options{N: cfg.Injections, Seed: cfg.Seed, Detector: checker}})
	dp := eyeriss.Params16nm.Datapath(dt)
	components := []fit.Component{{Name: "datapath", Bits: dp.TotalLatchBits(), SDCProb: r.Counts.Probability(sdc.SDC1)}}
	var detTally faultinj.Detection
	detTally.Merge(r.Detection)

	// Buffer components.
	camp := &eyeriss.Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: inputsFor(netName, cfg.Inputs)}}
	for _, b := range eyeriss.Buffers {
		br := camp.Run(b, eyeriss.Options{N: cfg.Injections / 2, Seed: cfg.Seed + int64(b)*3, Detector: checker})
		components = append(components, eyeriss.FITComponent(eyeriss.Params16nm, b, br.Counts.Probability(sdc.SDC1)))
		detTally.Merge(br.Detection)
	}

	before := fit.Total(components)
	recall := detTally.Recall()
	return SEDFITRow{
		Network: netName, DType: dt,
		FITBefore: before,
		FITAfter:  before * (1 - recall),
		Recall:    recall,
	}, nil
}

// Format renders the before/after comparison.
func (rows SEDFITRows) Format() string {
	t := &table{}
	t.add("Network", "DataType", "FIT before", "FIT after SED", "Recall")
	for _, r := range rows {
		t.addf("%s\t%s\t%.4g\t%.4g\t%s", r.Network, r.DType, r.FITBefore, r.FITAfter, pct(r.Recall))
	}
	return t.String()
}
