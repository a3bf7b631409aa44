package core

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/eyeriss"
	"repro/internal/fit"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// ---- E9: Table 7 — Eyeriss microarchitecture scaling ----

// Table7 returns the published 65 nm and 16 nm Eyeriss parameter rows plus
// the naive factor-8 projection for comparison.
func Table7() []eyeriss.Params {
	return []eyeriss.Params{
		eyeriss.Params65nm,
		eyeriss.Params16nm,
		eyeriss.Scale(eyeriss.Params65nm, 8, "16nm(scaled x8)"),
	}
}

// FormatTable7 renders the parameter table.
func FormatTable7(rows []eyeriss.Params) string {
	t := &table{}
	t.add("Node", "PEs", "GlobalBuf(KB)", "FilterSRAM(KB)", "ImgREG(KB)", "PSumREG(KB)")
	for _, p := range rows {
		t.addf("%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g",
			p.FeatureSize, p.NumPEs, p.GlobalBufferKB, p.FilterSRAMKB, p.ImgRegKB, p.PSumRegKB)
	}
	return t.String()
}

// ---- E10: Table 8 — buffer SDC probability and FIT per network ----

// Table8Cell is one (network, buffer) entry.
type Table8Cell struct {
	Network string
	Buffer  eyeriss.Buffer
	SDCProb float64
	CI      float64
	FIT     float64
}

// Table8 runs the Eyeriss buffer-fault campaigns (16b_rb10, as Eyeriss
// implements a 16-bit fixed-point datapath), one stratified campaign per
// (network, buffer class), and derives per-buffer FIT.
func Table8(cfg Config, networks []string) ([]Table8Cell, error) {
	var cells []Table8Cell
	for _, name := range networks {
		for i, b := range eyeriss.Buffers {
			spec := stratifiedSpec(cfg, name, numeric.Fx16RB10)
			spec.Surface, spec.Buffer = "buffer", campaign.BufferNames[i]
			r, err := run(spec)
			if err != nil {
				return nil, err
			}
			p, ci := r.SDCEstimate(sdc.SDC1)
			cells = append(cells, Table8Cell{
				Network: name, Buffer: b, SDCProb: p, CI: ci,
				FIT: eyeriss.FITComponent(eyeriss.Params16nm, b, p).FIT(),
			})
		}
	}
	return cells, nil
}

// FormatTable8 renders the buffer table.
func FormatTable8(cells []Table8Cell) string {
	t := &table{}
	t.add("Network", "Buffer", "SDC-1", "±CI", "FIT")
	for _, c := range cells {
		t.addf("%s\t%s\t%s\t%.2f%%\t%.4g", c.Network, c.Buffer, pct(c.SDCProb), c.CI*100, c.FIT)
	}
	return t.String()
}

// EyerissTotalFIT sums a network's Table 8 buffer FIT entries with its
// datapath FIT — the "overall FIT rate of Eyeriss" the paper compares
// against the ISO 26262 budget.
func EyerissTotalFIT(cells []Table8Cell, datapathFIT float64, network string) float64 {
	total := datapathFIT
	for _, c := range cells {
		if c.Network == network {
			total += c.FIT
		}
	}
	return total
}

// BudgetReport renders, per network, the overall Eyeriss FIT (the Table 8
// buffers plus the Table 6 16b_rb10 datapath) against the ISO 26262 budget.
func BudgetReport(cfg Config, networks []string) (string, error) {
	cells, err := Table8(cfg, networks)
	if err != nil {
		return "", err
	}
	dp, err := Table6(cfg, networks, []numeric.Type{numeric.Fx16RB10})
	if err != nil {
		return "", err
	}
	out := ""
	for _, c := range dp {
		out += FormatBudgetCheck(c.Network, EyerissTotalFIT(cells, c.FIT, c.Network))
	}
	return out, nil
}

// FormatBudgetCheck renders the ISO 26262 comparison for a total FIT rate.
func FormatBudgetCheck(network string, totalFIT float64) string {
	verdict := "within"
	if fit.ExceedsBudget(totalFIT, fit.ISO26262SoCBudget) {
		verdict = "EXCEEDS"
	}
	return fmt.Sprintf("%s: Eyeriss total FIT %.4g %s the %.0f-FIT ISO 26262 SoC budget\n",
		network, totalFIT, verdict, fit.ISO26262SoCBudget)
}
