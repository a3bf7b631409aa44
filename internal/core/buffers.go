package core

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/eyeriss"
	"repro/internal/fit"
	"repro/internal/sdc"
)

// ---- E9: Table 7 — Eyeriss microarchitecture scaling ----

// Table7Rows is the Eyeriss parameter table.
type Table7Rows []eyeriss.Params

// Table7 returns the published 65 nm and 16 nm Eyeriss parameter rows plus
// the naive factor-8 projection for comparison.
func Table7() Table7Rows {
	return Table7Rows{
		eyeriss.Params65nm,
		eyeriss.Params16nm,
		eyeriss.Scale(eyeriss.Params65nm, 8, "16nm(scaled x8)"),
	}
}

// Format renders the parameter table.
func (rows Table7Rows) Format() string {
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

// Table8Cells is the buffer table.
type Table8Cells []Table8Cell

// Table8 runs the Eyeriss buffer-fault campaigns (the paper's cells are
// 16b_rb10, as Eyeriss implements a 16-bit fixed-point datapath), one
// stratified campaign per (cell, buffer class), and derives per-buffer FIT.
func Table8(cfg Config, on []Cell) (Table8Cells, error) {
	var cells Table8Cells
	for _, c := range on {
		for i, b := range eyeriss.Buffers {
			spec := stratifiedSpec(cfg, c.Net, c.DType)
			spec.Surface, spec.Buffer = "buffer", campaign.BufferNames[i]
			r, err := run(spec)
			if err != nil {
				return nil, err
			}
			p, ci := r.SDCEstimate(sdc.SDC1)
			cells = append(cells, Table8Cell{
				Network: c.Net, Buffer: b, SDCProb: p, CI: ci,
				FIT: eyeriss.FITComponent(eyeriss.Params16nm, b, p).FIT(),
			})
		}
	}
	return cells, nil
}

// Format renders the buffer table.
func (cells Table8Cells) Format() string {
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

// BudgetReport renders, per cell (16b_rb10 in the paper), the overall
// Eyeriss FIT — the Table 8 buffers plus the Table 6 datapath — against the
// ISO 26262 budget.
func BudgetReport(cfg Config, on []Cell) (Text, error) {
	var out Text
	for _, c := range on {
		cells, err := Table8(cfg, []Cell{c})
		if err != nil {
			return "", err
		}
		dp, err := Table6(cfg, []Cell{c})
		if err != nil {
			return "", err
		}
		out += Text(FormatBudgetCheck(c.Net, EyerissTotalFIT(cells, dp[0].FIT, c.Net)))
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
