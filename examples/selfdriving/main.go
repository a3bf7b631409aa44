// Selfdriving reproduces the paper's Figure 2 scenario: a DNN-based object
// classifier in a self-driving car misclassifies an object because of a
// single soft error, potentially suppressing a braking action.
//
// The example searches a batch of frames for an injection whose outcome is
// an SDC-1, shows the golden-vs-faulty ranking flip, and then estimates how
// often such misclassifications occur (the motivation for the ISO 26262
// FIT budget analysis of §5).
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

func main() {
	const netName = "ConvNet" // the CIFAR-10-like classifier: 10 object classes
	net := models.Build(netName)
	dt := numeric.Fx32RB10 // the paper's most vulnerable configuration

	// Treat the 10 CIFAR-like classes as road objects.
	classes := []string{
		"truck", "car", "pedestrian", "cyclist", "animal",
		"traffic light", "sign", "bird", "tree", "road",
	}

	// Drive through a few camera frames and inject one fault per frame.
	rng := rand.New(rand.NewSource(7))
	profile := accel.NewProfile(net, dt)
	fmt.Println("frame-by-frame fault injection (one soft error per frame):")
	misclassified := 0
	const frames = 40
	for f := 0; f < frames; f++ {
		input := models.InputFor(netName, f)
		golden := net.Forward(dt, input)
		site := profile.RandomSite(rng)
		fault := site.Fault
		faulty := net.ForwardFrom(dt, golden, site.Layer, &fault)
		o := sdc.Classify(net, golden, faulty)
		if o.Hit[sdc.SDC1] {
			misclassified++
			fmt.Printf("  frame %2d: %q -> %q  (fault: %s)\n",
				f, classes[golden.Top1()], classes[faulty.Top1()], site)
		}
	}
	fmt.Printf("%d/%d frames misclassified under one soft error each\n\n", misclassified, frames)

	// A small campaign estimates the SDC probability behind those flips.
	campaign := faultinj.New(net, dt, []*tensor.Tensor{models.InputFor(netName, 0)})
	report := campaign.Run(faultinj.Options{Options: engine.Options{N: 400, Seed: 11}})
	fmt.Printf("measured SDC-1 probability for %s/%s: %.2f%%\n",
		netName, dt, report.Counts.Probability(sdc.SDC1)*100)
	fmt.Println("a truck misread as a bird is exactly the Figure 2 failure the paper warns about:")
	fmt.Println("the braking decision downstream consumes only the top-ranked class.")
}
