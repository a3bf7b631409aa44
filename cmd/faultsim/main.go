// Command faultsim runs datapath fault-injection campaigns against one of
// the paper's networks and prints the SDC breakdown, optionally per bit
// position or per layer.
//
// Usage:
//
//	faultsim -net AlexNet -dtype FLOAT16 -n 3000
//	faultsim -net NiN -dtype FLOAT -n 3000 -mode perbit
//	faultsim -net CaffeNet -dtype 32b_rb10 -n 3000 -mode perlayer
//
// To shard a campaign across processes or machines (with checkpoint/
// resume and live streaming aggregates), see cmd/faultserve.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/numeric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultsim: ")

	netName := flag.String("net", "AlexNet", "network: ConvNet, AlexNet, CaffeNet or NiN")
	dtypeName := flag.String("dtype", "FLOAT16", "data type: DOUBLE, FLOAT, FLOAT16, 32b_rb26, 32b_rb10 or 16b_rb10")
	n := flag.Int("n", 3000, "number of fault injections")
	inputs := flag.Int("inputs", 4, "number of distinct input images")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	mode := flag.String("mode", "overall", "overall, perbit or perlayer")
	flag.Parse()

	dt, err := numeric.ParseType(*dtypeName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{Injections: *n, Inputs: *inputs, Seed: *seed, WeightsDir: *weightsDir}

	var res interface{ Format() string }
	switch *mode {
	case "overall":
		res, err = core.Fig3(cfg, []string{*netName}, []numeric.Type{dt})
	case "perbit":
		res, err = core.Fig4(cfg, *netName, dt)
	case "perlayer":
		res, err = core.Fig6(cfg, *netName, dt)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
}
