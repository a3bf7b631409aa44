package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/numeric"
)

func TestAblateLRNMasking(t *testing.T) {
	// Removing LRN must not decrease layer-1 SDC probability — the paper's
	// §5.1.4 attribution, tested directly.
	cfg := Config{Injections: 250, Inputs: 1, Seed: 23}
	res := must(AblateLRN(cfg, "AlexNet", numeric.Float16))
	if res.AblatedSDC < res.BaselineSDC {
		t.Errorf("no-LRN layer-1 SDC %.4f below baseline %.4f", res.AblatedSDC, res.BaselineSDC)
	}
	if !strings.Contains(res.Format(), "no-LRN") {
		t.Error("format missing ablation name")
	}
}

func TestFormatRecommendationsAllNetworks(t *testing.T) {
	out := must(FormatRecommendations(Config{Inputs: 1}, cross([]string{"ConvNet", "AlexNet"}, numeric.Double))).Format()
	if !strings.Contains(out, "recommended") {
		t.Errorf("no recommendation in:\n%s", out)
	}
	// ConvNet's small ranges fit the 16-bit fixed format.
	rec := must(FormatRecommendation(Config{Inputs: 2}, "ConvNet", numeric.Double))
	if !rec.Valid {
		t.Fatal("no valid recommendation for ConvNet")
	}
	if rec.Best != numeric.Fx16RB10 {
		t.Errorf("ConvNet recommendation = %v, want 16b_rb10", rec.Best)
	}
}

func TestReuseReportCoversNetworks(t *testing.T) {
	out := ReuseReport().Format()
	for _, want := range []string{"ConvNet", "NiN", "conv1", "WeightReads"} {
		if !strings.Contains(out, want) {
			t.Errorf("reuse report missing %q", want)
		}
	}
}

func TestScheduleReportCoversNetworks(t *testing.T) {
	out := ScheduleReport().Format()
	for _, want := range []string{"AlexNet", "conv1", "fc8", "efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("schedule report missing %q", want)
		}
	}
}

func TestTable8ResidencyRuns(t *testing.T) {
	cfg := Config{Injections: 40, Inputs: 1, Seed: 25}
	cells := must(Table8Residency(cfg, cross([]string{"ConvNet"}, numeric.Fx16RB10)))
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.SDCProb < 0 || c.SDCProb > 1 {
			t.Errorf("%s: SDC %v out of range", c.Buffer, c.SDCProb)
		}
	}
}

func TestMixedPrecisionNarrowStorageHelps(t *testing.T) {
	// The reduced-precision storage protocol: FLOAT16 storage must yield
	// a lower global-buffer FIT than FLOAT storage at the same compute
	// format (half the bits; bounded deviations).
	cfg := Config{Injections: 150, Inputs: 1, Seed: 27}
	rows := must(MixedPrecision(cfg, cross([]string{"AlexNet"}, numeric.Float, numeric.Float16)))
	wide, narrow := rows[0], rows[1]
	if narrow.FIT >= wide.FIT {
		t.Errorf("FLOAT16 storage FIT %.4g not below FLOAT storage FIT %.4g", narrow.FIT, wide.FIT)
	}
	if !strings.Contains(rows.Format(), "Storage") {
		t.Error("format missing header")
	}
}

func TestWeightsDirFallsBackSilently(t *testing.T) {
	// A WeightsDir without the network's file is an error naming the
	// missing file; it never falls back to the synthetic weights.
	cfg := Config{Injections: 20, Inputs: 1, Seed: 29, WeightsDir: t.TempDir()}
	_, err := Fig3(cfg, cross([]string{"ConvNet"}, numeric.Fx16RB10))
	if err == nil || !strings.Contains(err.Error(), filepath.Join(cfg.WeightsDir, "ConvNet.weights")) {
		t.Fatalf("Fig3 on an empty weights dir: error %v, want one naming the missing file", err)
	}
}

func TestValidatePEArrayAllMatch(t *testing.T) {
	res := must(ValidatePEArray(Config{Injections: 40, Inputs: 1, Seed: 31}, "ConvNet", numeric.Fx32RB26))
	if res.Checked != 40 {
		t.Fatalf("checked = %d", res.Checked)
	}
	if res.Matches != res.Checked {
		t.Errorf("only %d/%d faults matched the abstract model", res.Matches, res.Checked)
	}
	if !strings.Contains(res.Format(), "bit-identical") {
		t.Error("format missing summary")
	}
}

func TestLatchBreakdown(t *testing.T) {
	cfg := Config{Injections: 200, Inputs: 1, Seed: 33}
	rows := must(LatchBreakdown(cfg, cross([]string{"ConvNet"}, numeric.Fx32RB10)))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 latch classes", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Trials
		if r.SDCProb < 0 || r.SDCProb > 1 {
			t.Errorf("%v: SDC %v out of range", r.Target, r.SDCProb)
		}
	}
	if total != 200 {
		t.Errorf("trials partition = %d, want 200", total)
	}
	if !strings.Contains(rows.Format(), "accum-latch") {
		t.Error("format missing latch names")
	}
}
