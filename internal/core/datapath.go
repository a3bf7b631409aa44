package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/fit"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// ---- E1: Figure 3 — SDC probability × network × data type ----

// Fig3Row is one (network, data type) bar group of Figure 3.
type Fig3Row struct {
	Network string
	DType   numeric.Type
	// Prob and CI are indexed by sdc.Kind; CI is the 95% half-width.
	Prob [sdc.NumKinds]float64
	CI   [sdc.NumKinds]float64
	// Defined reports whether the criterion applies (confidence SDCs do
	// not apply to NiN).
	Defined [sdc.NumKinds]bool
}

// Fig3Result is the full Figure 3 dataset.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 reads Figure 3 — the whole-campaign SDC estimates — off the
// datapath campaign of each cell.
func Fig3(cfg Config, cells []Cell) (*Fig3Result, error) {
	res := &Fig3Result{}
	for _, c := range cells {
		r, err := run(stratifiedSpec(cfg, c.Net, c.DType))
		if err != nil {
			return nil, err
		}
		row := Fig3Row{Network: c.Net, DType: c.DType}
		counts := r.Counts()
		for _, k := range sdc.Kinds {
			row.Prob[k], row.CI[k] = r.SDCEstimate(k)
			row.Defined[k] = counts.DefinedTrials[k] > 0
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the Figure 3 rows as a text table.
func (r *Fig3Result) Format() string {
	t := &table{}
	t.add("Network", "DataType", "SDC-1", "SDC-5", "SDC-10%", "SDC-20%")
	for _, row := range r.Rows {
		cells := []string{row.Network, row.DType.String()}
		for _, k := range sdc.Kinds {
			if row.Defined[k] {
				cells = append(cells, fmt.Sprintf("%s ±%.2f%%", pct(row.Prob[k]), row.CI[k]*100))
			} else {
				cells = append(cells, "N/A")
			}
		}
		t.add(cells...)
	}
	return t.String()
}

// ---- E2: Figure 4 — per-bit SDC probability ----

// Fig4Result is the per-bit SDC series for one network and data type.
type Fig4Result struct {
	Network string
	DType   numeric.Type
	// Prob[b] is the SDC-1 probability of flipping bit b.
	Prob []float64
	CI   []float64
}

// Fig4 reads the per-bit SDC sensitivity (Figure 4) off the datapath
// campaign's strata: each bit position conditioned across blocks.
func Fig4(cfg Config, netName string, dt numeric.Type) (*Fig4Result, error) {
	r, err := run(stratifiedSpec(cfg, netName, dt))
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Network: netName, DType: dt,
		Prob: make([]float64, dt.Width()), CI: make([]float64, dt.Width())}
	for bit := range res.Prob {
		e := r.Strata().BitEstimate(bit, sdc.SDC1)
		res.Prob[bit], res.CI[bit] = e.P(), e.CI95()
	}
	return res, nil
}

// Format renders the per-bit series, highest bit first.
func (r *Fig4Result) Format() string {
	t := &table{}
	t.add("Bit", "Class", "SDC-1", "±CI")
	for bit := r.DType.Width() - 1; bit >= 0; bit-- {
		t.addf("%d\t%s\t%s\t%.2f%%", bit, r.DType.Classify(bit), pct(r.Prob[bit]), r.CI[bit]*100)
	}
	return fmt.Sprintf("%s / %s per-bit SDC probability:\n%s", r.Network, r.DType, t.String())
}

// Sensitivity converts the per-bit SDC series into a per-latch FIT
// sensitivity vector for the SLH model (§6.3): each bit's contribution is
// Rraw · 1 bit · SDC_bit.
func (r *Fig4Result) Sensitivity() []float64 {
	s := make([]float64, len(r.Prob))
	for i, p := range r.Prob {
		s[i] = fit.Rate(1, p)
	}
	return s
}

// ---- E3: Figure 5 — activation values before/after SDC vs benign faults ----

// Fig5Result partitions sampled faulted-activation values by outcome.
type Fig5Result struct {
	Network string
	DType   numeric.Type
	// SDC and Benign hold (golden, faulty) value pairs.
	SDC    []faultinj.ValueRecord
	Benign []faultinj.ValueRecord
}

// Fig5 samples faulted ACT values (the paper uses AlexNet with FLOAT16):
// a uniform campaign, since the samples are raw per-injection records.
func Fig5(cfg Config, netName string, dt numeric.Type) (*Fig5Result, error) {
	spec := uniformSpec(cfg, netName, dt)
	spec.TrackValues = cfg.Injections
	r, err := run(spec)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Network: netName, DType: dt}
	for _, v := range r.Datapath.Values {
		if v.SDC {
			res.SDC = append(res.SDC, v)
		} else {
			res.Benign = append(res.Benign, v)
		}
	}
	return res, nil
}

// LargeDeviationShare returns, for the SDC and benign populations, the
// fraction of faults whose faulty value deviates from golden by more than
// threshold — the paper's "large deviations mostly cause SDCs" statistic.
func (r *Fig5Result) LargeDeviationShare(threshold float64) (sdcShare, benignShare float64) {
	count := func(vs []faultinj.ValueRecord) float64 {
		if len(vs) == 0 {
			return 0
		}
		n := 0
		for _, v := range vs {
			d := v.Faulty - v.Golden
			if d < 0 {
				d = -d
			}
			if d > threshold || d != d { // non-finite deviations count as large
				n++
			}
		}
		return float64(n) / float64(len(vs))
	}
	return count(r.SDC), count(r.Benign)
}

// Format summarizes the two populations.
func (r *Fig5Result) Format() string {
	s, b := r.LargeDeviationShare(64)
	return fmt.Sprintf("%s/%s: %d SDC samples, %d benign samples; large-deviation share: SDC %s vs benign %s\n",
		r.Network, r.DType, len(r.SDC), len(r.Benign), pct(s), pct(b))
}

// ---- E5: Figure 6 — SDC probability per layer ----

// Fig6Result is the per-layer SDC series of one network.
type Fig6Result struct {
	Network string
	DType   numeric.Type
	// Prob[i] is the SDC-1 probability of faults injected into block i.
	Prob []float64
	CI   []float64
}

// Fig6 reads the per-layer SDC series (Figure 6) off the datapath
// campaign's strata: each CONV/FC block's bits, equally weighted.
func Fig6(cfg Config, netName string, dt numeric.Type) (*Fig6Result, error) {
	r, err := run(stratifiedSpec(cfg, netName, dt))
	if err != nil {
		return nil, err
	}
	blocks := r.Strata().Blocks
	res := &Fig6Result{Network: netName, DType: dt,
		Prob: make([]float64, blocks), CI: make([]float64, blocks)}
	for b := range res.Prob {
		e := r.Strata().BlockEstimate(b, sdc.SDC1)
		res.Prob[b], res.CI[b] = e.P(), e.CI95()
	}
	return res, nil
}

// Format renders the per-layer series.
func (r *Fig6Result) Format() string {
	t := &table{}
	t.add("Layer", "SDC-1", "±CI")
	for b, p := range r.Prob {
		t.addf("%d\t%s\t%.2f%%", b+1, pct(p), r.CI[b]*100)
	}
	return fmt.Sprintf("%s / %s per-layer SDC probability:\n%s", r.Network, r.DType, t.String())
}

// ---- E6: Figure 7 — Euclidean distance per layer after layer-1 faults ----

// fig7Clamp caps per-run layer distances at the float32-max scale
// (~3.4e38), matching the dynamic range of the paper's Figure 7.
const fig7Clamp = 3.4e38

// Fig7Result is the mean per-layer error distance of one network.
type Fig7Result struct {
	Network string
	DType   numeric.Type
	// Dist[i] is the mean Euclidean distance between faulty and golden
	// ACTs at the end of block i, for faults injected at block 0.
	Dist []float64
}

// Fig7 injects faults into the first block and traces the mean error
// magnitude through the network (the paper uses DOUBLE to accentuate the
// differences). Distances from runs where the fault was masked entirely
// contribute zero, as in the paper's averages. At most 200 faults are
// traced: the loop is serial and the means converge quickly.
func Fig7(cfg Config, netName string, dt numeric.Type) (*Fig7Result, error) {
	net, err := buildNet(cfg, netName)
	if err != nil {
		return nil, err
	}
	c := faultinj.New(net, dt, inputsFor(netName, cfg.Inputs))
	p := c.Profile()
	blocks := p.NumMACLayers()
	res := &Fig7Result{Network: netName, DType: dt, Dist: make([]float64, blocks)}

	// Distance tracing needs the faulty executions, so run serially here
	// (N is modest for this figure).
	rng := newRand(cfg.Seed)
	n := min(cfg.Injections, 200)
	for i := 0; i < n; i++ {
		golden := c.Golden(i % cfg.Inputs)
		site := p.Draw(rng, 0, -1, 1)
		fault := site.Fault
		faulty := net.ForwardFrom(dt, golden, site.Layer, &fault)
		for b, d := range net.LayerDistances(golden, faulty) {
			// Clamp unbounded blow-ups (DOUBLE faults can reach 1e300+)
			// at the float32-max scale the paper's Figure 7 axis tops
			// out at, so a single astronomical run cannot drown the mean.
			if d > fig7Clamp {
				d = fig7Clamp
			}
			res.Dist[b] += d / float64(n)
		}
	}
	return res, nil
}

// Format renders the distance series.
func (r *Fig7Result) Format() string {
	t := &table{}
	t.add("Layer", "MeanEuclideanDistance")
	for b, d := range r.Dist {
		t.addf("%d\t%.4g", b+1, d)
	}
	return fmt.Sprintf("%s / %s distance after layer-1 faults:\n%s", r.Network, r.DType, t.String())
}

// ---- E4: Table 4 — per-layer activation value ranges ----

// Table4Row holds one network's per-layer golden value ranges.
type Table4Row struct {
	Network string
	Ranges  []Range
}

// Range is a per-block value range of the experiment report.
type Range = network.Range

// blockRanges profiles a network's error-free per-block value ranges over
// the configured inputs.
func blockRanges(cfg Config, name string, dt numeric.Type) ([]Range, error) {
	net, err := buildNet(cfg, name)
	if err != nil {
		return nil, err
	}
	var agg []Range
	for i := 0; i < cfg.Inputs; i++ {
		rs := net.BlockRanges(net.Forward(dt, models.InputFor(name, i)))
		if agg == nil {
			agg = rs
			continue
		}
		for b := range rs {
			if rs[b].Min < agg[b].Min {
				agg[b].Min = rs[b].Min
			}
			if rs[b].Max > agg[b].Max {
				agg[b].Max = rs[b].Max
			}
		}
	}
	return agg, nil
}

// Table4Rows is the value-range table.
type Table4Rows []Table4Row

// Table4 profiles the error-free per-layer value ranges of each cell.
func Table4(cfg Config, cells []Cell) (Table4Rows, error) {
	var rows Table4Rows
	for _, c := range cells {
		ranges, err := blockRanges(cfg, c.Net, c.DType)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{Network: c.Net, Ranges: ranges})
	}
	return rows, nil
}

// Format renders the value-range table.
func (rows Table4Rows) Format() string {
	t := &table{}
	t.add("Network", "Layer", "Min", "Max")
	for _, row := range rows {
		for b, r := range row.Ranges {
			t.addf("%s\t%d\t%.4g\t%.4g", row.Network, b+1, r.Min, r.Max)
		}
	}
	return t.String()
}

// ---- E7: Table 5 — bit-wise SDC (propagation) rate per layer ----

// Table5Result is the per-layer propagation table for one network.
type Table5Result struct {
	Network string
	DType   numeric.Type
	// Spread[i] is the mean fraction of final-layer ACTs that differ
	// bit-wise from golden for faults injected into block i.
	Spread []float64
	// SDC1[i] is the block's SDC-1 probability, for the masking contrast.
	SDC1 []float64
}

// Table5 measures how widely faults injected into each layer spread into
// the final layer's ACTs (AlexNet with FLOAT16 in the paper): the datapath
// campaign with the spread metric tracked per stratum.
func Table5(cfg Config, netName string, dt numeric.Type) (*Table5Result, error) {
	spec := stratifiedSpec(cfg, netName, dt)
	spec.TrackSpread = true
	r, err := run(spec)
	if err != nil {
		return nil, err
	}
	blocks := r.Strata().Blocks
	res := &Table5Result{Network: netName, DType: dt,
		Spread: make([]float64, blocks), SDC1: make([]float64, blocks)}
	for b := range res.Spread {
		res.Spread[b] = r.Datapath.SpreadRate(b)
		res.SDC1[b] = r.Strata().BlockEstimate(b, sdc.SDC1).P()
	}
	return res, nil
}

// Format renders the propagation table.
func (r *Table5Result) Format() string {
	t := &table{}
	t.add("Layer", "Bit-wise spread", "SDC-1")
	for b := range r.Spread {
		t.addf("%d\t%s\t%s", b+1, pct(r.Spread[b]), pct(r.SDC1[b]))
	}
	return fmt.Sprintf("%s / %s propagation to final layer:\n%s", r.Network, r.DType, t.String())
}

// ---- E8: Table 6 — datapath FIT rate × network × data type ----

// Table6Cell is one datapath FIT entry.
type Table6Cell struct {
	Network string
	DType   numeric.Type
	SDCProb float64
	FIT     float64
}

// Table6Cells is the datapath FIT table.
type Table6Cells []Table6Cell

// Table6 computes datapath FIT rates: the Fig. 3 SDC-1 probabilities
// applied to the canonical datapath latch plane (Eq. 1) at the Eyeriss
// 16 nm PE count.
func Table6(cfg Config, on []Cell) (Table6Cells, error) {
	f3, err := Fig3(cfg, on)
	if err != nil {
		return nil, err
	}
	cells := make(Table6Cells, len(f3.Rows))
	for i, row := range f3.Rows {
		p := row.Prob[sdc.SDC1]
		cells[i] = Table6Cell{
			Network: row.Network, DType: row.DType, SDCProb: p,
			FIT: fit.Rate(eyeriss.Params16nm.Datapath(row.DType).TotalLatchBits(), p),
		}
	}
	return cells, nil
}

// Format renders the datapath FIT table.
func (cells Table6Cells) Format() string {
	t := &table{}
	t.add("Network", "DataType", "SDC-1", "Datapath FIT")
	for _, c := range cells {
		t.addf("%s\t%s\t%s\t%.4g", c.Network, c.DType, pct(c.SDCProb), c.FIT)
	}
	t.add("", "", "", fmt.Sprintf("(latch plane: %d PEs x %d latches)", eyeriss.Params16nm.NumPEs, accel.LatchesPerPE))
	return t.String()
}
