// Command fitcalc computes the paper's FIT-rate tables: datapath FIT per
// network and data type (Table 6), the Eyeriss parameter scaling (Table 7),
// per-buffer FIT (Table 8) and the ISO 26262 budget comparison.
//
// Usage:
//
//	fitcalc -exp table7
//	fitcalc -exp table6 -n 3000
//	fitcalc -exp table8 -n 3000 -nets ConvNet,AlexNet
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fitcalc: ")

	exp := flag.String("exp", "table7", "table6, table7, table8 or budget")
	n := flag.Int("n", 1000, "injections per configuration")
	inputs := flag.Int("inputs", 4, "number of distinct input images")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	nets := flag.String("nets", strings.Join(models.Names, ","), "comma-separated network list")
	flag.Parse()

	cfg := core.Config{Injections: *n, Inputs: *inputs, Seed: *seed, WeightsDir: *weightsDir}
	networks := strings.Split(*nets, ",")

	switch *exp {
	case "table7":
		fmt.Print(core.FormatTable7(core.Table7()))
	case "table6":
		fmt.Print(core.FormatTable6(check(core.Table6(cfg, networks, core.AllDataTypes))))
	case "table8":
		fmt.Print(core.FormatTable8(check(core.Table8(cfg, networks))))
	case "budget":
		fmt.Print(check(core.BudgetReport(cfg, networks)))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// check unwraps an experiment's (result, error) pair: an error — a weights
// file that does not load — ends the run with one line.
func check[T any](res T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
