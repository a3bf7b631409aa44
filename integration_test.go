package repro

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/fit"
	"repro/internal/harden"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/rowstat"
	"repro/internal/sdc"
	"repro/internal/systolic"
	"repro/internal/tensor"
	"repro/internal/train"
)

// TestEndToEndPipeline exercises the whole stack the way a user of the
// library would: build a model, run golden inference, inject faults on
// every surface (datapath, buffer hierarchy, systolic array), learn and
// deploy the detector, compute FIT, and derive a hardening plan —
// asserting the cross-module invariants hold.
func TestEndToEndPipeline(t *testing.T) {
	const name = "ConvNet"
	dt := numeric.Fx16RB10
	net := models.Build(name)
	inputs := []*tensor.Tensor{models.InputFor(name, 0), models.InputFor(name, 1)}

	// 1. Datapath campaign.
	camp := faultinj.New(net, dt, inputs)
	det := detect.Learn(net, dt, []*tensor.Tensor{models.InputFor(name, 100), models.InputFor(name, 101)}, detect.DefaultCushion)
	report := camp.Run(faultinj.Options{
		Options: engine.Options{N: 200, Seed: 5, Detector: func(e *network.Execution) bool { return det.Check(net, e) }},
	})
	if report.Counts.Trials != 200 {
		t.Fatalf("trials = %d", report.Counts.Trials)
	}
	dpSDC := report.Counts.Probability(sdc.SDC1)

	// 2. Buffer campaign for the dominant buffer.
	bcamp := &eyeriss.Campaign{
		Campaign:  engine.Campaign{Net: models.Build(name), DType: dt, Inputs: inputs},
		Residency: rowstat.New(net, rowstat.Eyeriss16nm).ResidencyWeights(),
	}
	breport := bcamp.Run(eyeriss.FilterSRAM, eyeriss.Options{N: 120, Seed: 7})
	bufSDC := breport.Counts.Probability(sdc.SDC1)

	// 3. Systolic campaign on the weight-stationary array surface.
	scamp := &systolic.Campaign{
		Campaign: engine.Campaign{Net: models.Build(name), DType: dt, Inputs: inputs},
	}
	sreport := scamp.Run(systolic.Options{N: 120, Seed: 8})
	if sreport.Counts.Trials != 120 {
		t.Fatalf("systolic trials = %d", sreport.Counts.Trials)
	}
	sysSDC := sreport.Counts.Probability(sdc.SDC1)

	// 4. Reuse makes buffer faults worse than datapath faults.
	if bufSDC < dpSDC {
		t.Errorf("Filter SRAM SDC %.3f below datapath SDC %.3f — reuse model broken", bufSDC, dpSDC)
	}

	// 5. FIT arithmetic composes across all three surfaces.
	dp := eyeriss.Params16nm.Datapath(dt)
	total := fit.Total([]fit.Component{
		{Name: "datapath", Bits: dp.TotalLatchBits(), SDCProb: dpSDC},
		eyeriss.FITComponent(eyeriss.Params16nm, eyeriss.FilterSRAM, bufSDC),
		{Name: "systolic array", Bits: systolic.LatchBits(systolic.DefaultParams, dt), SDCProb: sysSDC},
	})
	if total <= 0 {
		t.Fatal("total FIT not positive")
	}

	// 6. Per-bit sensitivity drives a hardening plan that meets its target.
	profile := accel.NewProfile(net, dt)
	_ = profile
	f4, err := core.Fig4(core.Config{Injections: 320, Inputs: 1, Seed: 9}, name, dt)
	if err != nil {
		t.Fatal(err)
	}
	s := harden.Sensitivity(f4.Sensitivity())
	if s.Total() <= 0 {
		t.Skip("no SDC-causing bits at this campaign size")
	}
	plan, ok := harden.MultiPlan(s, 50)
	if !ok {
		t.Fatal("50x hardening target unreachable")
	}
	if got := s.Total() / plan.ResidualFIT(s); got < 50 {
		t.Errorf("hardening plan achieved %.1fx, want >= 50x", got)
	}
	if plan.Area() <= 0 || plan.Area() > 2.5 {
		t.Errorf("plan area overhead %.2f out of a sane range", plan.Area())
	}
}

// TestTrainedWeightsRoundTripThroughCampaign trains briefly, saves, loads
// through the pretrained path, and verifies campaign determinism across
// the round trip.
func TestTrainedWeightsRoundTripThroughCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	const name = "ConvNet"
	dir := t.TempDir()
	trained := models.BuildTrained(name, 60, 3)
	if err := models.SaveWeights(trained, filepath.Join(dir, name+".weights")); err != nil {
		t.Fatal(err)
	}
	loaded, err := models.LoadPretrained(name, dir)
	if err != nil {
		t.Fatalf("LoadPretrained: %v", err)
	}

	in := []*tensor.Tensor{models.InputFor(name, 0)}
	opt := faultinj.Options{Options: engine.Options{N: 80, Seed: 13}}
	r1 := faultinj.New(trained, numeric.Float16, in).Run(opt)
	r2 := faultinj.New(loaded, numeric.Float16, in).Run(opt)
	if r1.Counts != r2.Counts {
		t.Error("campaign diverged across the save/load round trip")
	}
}

// TestCommittedWeightsLoad loads every committed weights/*.weights file
// through the pretrained path a `-weights weights` run takes, and checks
// the network classifies held-out samples better than chance.
func TestCommittedWeightsLoad(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("weights", "*.weights"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed weights files (%v)", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".weights")
		net, err := models.LoadPretrained(name, "weights")
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		classes := min(net.Classes, 10) // TrainedAccuracy's label space
		if acc := models.TrainedAccuracy(net, name, 50); acc <= 1/float64(classes) {
			t.Errorf("%s: held-out accuracy %.2f, chance is %.2f", f, acc, 1/float64(classes))
		}
	}
}

// TestTrainingImprovesLossEndToEnd ensures the trainer works on a real
// model-zoo network end to end.
func TestTrainingImprovesLossEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	net := models.Build("ConvNet")
	samples := models.TrainingSamplesCapped("ConvNet", 40, 0)
	tr := train.New(net, 0.01, 0.9)
	first, _ := tr.Step(samples[:8])
	var last float64
	for i := 0; i < 25; i++ {
		last, _ = tr.Step(samples[:8])
	}
	if math.IsNaN(last) || last >= first {
		t.Errorf("loss did not improve: %.4f -> %.4f", first, last)
	}
}
