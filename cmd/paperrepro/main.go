// Command paperrepro runs the experiments of core.Experiments — every table
// and figure of the paper's evaluation and the repo's extensions (see
// DESIGN.md §4 for the index) — and prints them in table order. Standard
// output is the tables alone, a function of the flags and not of the host;
// per-experiment timing and the campaign runner's counters go to standard
// error.
//
// Usage:
//
//	paperrepro -scale quick            # CI-sized campaigns
//	paperrepro -scale paper            # 3000 injections per configuration
//	paperrepro -exp fig3,table8        # a subset of experiments
//	paperrepro -exp fig4 -nets ConvNet -dtypes FLOAT16 -n 3000 -inputs 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrepro: ")

	scale := flag.String("scale", "quick", "quick or paper")
	exp := flag.String("exp", "all", "comma-separated experiment ids, or all")
	nets := flag.String("nets", "", "comma-separated networks: alone, keep the chosen experiments' cells on these; with -dtypes, replace the cells by networks x formats")
	dtypes := flag.String("dtypes", "", "comma-separated data types: alone, keep the chosen experiments' cells of these; with -nets, replace the cells by networks x formats")
	n := flag.Int("n", 0, "injections per configuration (0 = the scale's)")
	inputs := flag.Int("inputs", 0, "distinct input images per network (0 = the scale's)")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	csvDir := flag.String("csv", "", "also write plotting-ready CSV files for the experiments that have them into this directory")
	flag.Parse()

	cfg, ok := map[string]core.Config{"quick": core.Quick, "paper": core.PaperScale}[*scale]
	if !ok {
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.WeightsDir = *weightsDir
	if *n > 0 {
		cfg.Injections = *n
	}
	if *inputs > 0 {
		cfg.Inputs = *inputs
	}

	chosen, err := core.Select(*exp, *nets, *dtypes)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for _, e := range chosen {
		fmt.Printf("==== %s ====\n", e.Title)
		start := time.Now()
		res, err := e.Run(cfg, e.Cells)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Format())
		if plot, ok := res.(interface{ CSV() string }); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(plot.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("(csv -> %s)\n", path)
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s, %s; so far %s)\n", e.ID, time.Since(start).Round(time.Millisecond), core.RunnerStats())
	}
}
