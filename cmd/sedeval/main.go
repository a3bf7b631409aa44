// Command sedeval evaluates the Symptom-based Error Detector (§6.2):
// precision and recall per network (Figure 8) and the resulting Eyeriss
// FIT reduction.
//
// Usage:
//
//	sedeval -n 3000
//	sedeval -n 1000 -nets AlexNet -fit
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/numeric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sedeval: ")

	n := flag.Int("n", 3000, "injections per (network, data type, component)")
	inputs := flag.Int("inputs", 4, "number of distinct input images")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	nets := flag.String("nets", strings.Join(core.SEDNetworks, ","), "comma-separated network list")
	fitFlag := flag.Bool("fit", false, "also print the FIT before/after SED comparison")
	flag.Parse()

	cfg := core.Config{Injections: *n, Inputs: *inputs, Seed: *seed, WeightsDir: *weightsDir}
	networks := strings.Split(*nets, ",")

	rows, err := core.Fig8(cfg, networks, core.SEDDataTypes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatFig8(rows))

	if *fitFlag {
		var fitRows []core.SEDFITRow
		for _, name := range networks {
			for _, dt := range []numeric.Type{numeric.Float, numeric.Float16} {
				row, err := core.SEDFIT(cfg, name, dt)
				if err != nil {
					log.Fatal(err)
				}
				fitRows = append(fitRows, row)
			}
		}
		fmt.Println()
		fmt.Print(core.FormatSEDFIT(fitRows))
	}
}
