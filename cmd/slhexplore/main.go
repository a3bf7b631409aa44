// Command slhexplore runs the Selective Latch Hardening design-space
// exploration (§6.3): it measures the per-bit SDC FIT sensitivity of a
// network/format pair (Figure 4), prints the hardened latch design space
// (Table 9), the protection curve asymmetry β (Figure 9a) and the area
// overhead required to reach each FIT-reduction target with RCC, SEUT, TMR
// and the cost-optimal Multi combination (Figures 9b/9c).
//
// Usage:
//
//	slhexplore -net AlexNet -dtype FLOAT16 -n 3000
//	slhexplore -net AlexNet -dtype 16b_rb10 -n 3000
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/numeric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slhexplore: ")

	netName := flag.String("net", "AlexNet", "network: ConvNet, AlexNet, CaffeNet or NiN")
	dtypeName := flag.String("dtype", "FLOAT16", "data type")
	n := flag.Int("n", 3000, "total injections across bit positions")
	inputs := flag.Int("inputs", 4, "number of distinct input images")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	flag.Parse()

	dt, err := numeric.ParseType(*dtypeName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{Injections: *n, Inputs: *inputs, Seed: *seed, WeightsDir: *weightsDir}

	fmt.Println("Hardened latch design space (Table 9):")
	fmt.Print(core.FormatTable9(core.Table9()))
	fmt.Println()
	res, err := core.Fig9(cfg, *netName, dt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
	fmt.Println()
	fmt.Println("Perfect-protection curve (Fig. 9a):")
	for i := range res.CurveX {
		fmt.Printf("  protect %5.1f%% of latches -> remove %5.1f%% of FIT\n",
			res.CurveX[i]*100, res.CurveY[i]*100)
	}
}
