// Detectors deploys the paper's Symptom-based Error Detector (§6.2) on a
// network: learn per-layer activation ranges offline, add the 10% cushion,
// then check every inference's layer outputs against the bounds and
// measure precision/recall against injected faults.
package main

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

func main() {
	const netName = "AlexNet"
	dt := numeric.Float
	net := models.Build(netName)

	// Learning phase: profile fault-free executions on training images.
	train := make([]*tensor.Tensor, 12)
	for i := range train {
		train[i] = models.InputFor(netName, 1000+i)
	}
	det := detect.Learn(net, dt, train, detect.DefaultCushion)
	fmt.Printf("learned bounds for %s/%s (cushion %.0f%%):\n", netName, dt, detect.DefaultCushion*100)
	for b, r := range det.Bounds {
		fmt.Printf("  layer %d: [%.4g, %.4g]\n", b+1, r.Min, r.Max)
	}

	// Sanity: fault-free held-out inputs should not trigger alarms.
	held := make([]*tensor.Tensor, 6)
	for i := range held {
		held[i] = models.InputFor(netName, 2000+i)
	}
	fmt.Printf("false-alarm rate on held-out fault-free inputs: %.1f%%\n",
		det.FalseAlarmRate(net, held)*100)

	// Deployment: evaluate against a datapath fault campaign.
	campaign := faultinj.New(net, dt, []*tensor.Tensor{models.InputFor(netName, 0)})
	report := campaign.Run(faultinj.Options{
		Options: engine.Options{N: 400, Seed: 5, Detector: func(e *network.Execution) bool { return det.Check(net, e) }},
	})
	fmt.Printf("campaign: %d injections, %d SDC-causing\n",
		report.Detection.Total, report.Detection.TotalSDC)
	fmt.Printf("detector precision: %.2f%%\n", report.Detection.Precision()*100)
	fmt.Printf("detector recall:    %.2f%%\n", report.Detection.Recall()*100)
}
