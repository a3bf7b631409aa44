// Command paperrepro regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) and prints them
// in order. Standard output is the tables alone, byte-identical from run to
// run; per-experiment timing and the campaign runner's counters go to
// standard error.
//
// Usage:
//
//	paperrepro -scale quick            # CI-sized campaigns
//	paperrepro -scale paper            # 3000 injections per configuration
//	paperrepro -exp fig3,table8        # a subset of experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/numeric"
)

// experiment binds an id to its runner.
type experiment struct {
	id, title string
	run       func(core.Config)
}

var experiments = []experiment{
	{"fig3", "Figure 3: SDC probability x network x data type (datapath faults)", runFig3},
	{"fig4", "Figure 4: SDC probability per bit position", runFig4},
	{"fig5", "Figure 5: ACT values before/after errors (SDC vs benign)", runFig5},
	{"table4", "Table 4: per-layer activation value ranges", runTable4},
	{"fig6", "Figure 6: SDC probability per layer (FLOAT16)", runFig6},
	{"fig7", "Figure 7: Euclidean distance per layer after layer-1 faults (DOUBLE)", runFig7},
	{"table5", "Table 5: bit-wise SDC across layers (AlexNet, FLOAT16)", runTable5},
	{"table6", "Table 6: datapath FIT rate per network and data type", runTable6},
	{"table7", "Table 7: Eyeriss microarchitecture 65nm -> 16nm", runTable7},
	{"table8", "Table 8: Eyeriss buffer SDC probability and FIT (16b_rb10)", runTable8},
	{"fig8", "Figure 8: symptom-based detector precision and recall", runFig8},
	{"table9", "Table 9: hardened latch design space", runTable9},
	{"fig9", "Figure 9: selective latch hardening exploration (AlexNet)", runFig9},
	{"sedfit", "SED FIT reduction on Eyeriss (Section 6.2)", runSEDFIT},
	{"budget", "ISO 26262 budget comparison (Section 5.2/6.1)", runBudget},
	{"ablation", "Ablation: LRN masking effect (extension of Section 5.1.4)", runAblation},
	{"formats", "Just-enough format recommendation (Section 6.1 implication 1)", runFormats},
	{"reuse", "Analytic per-layer reuse factors (Table 1/8 background)", runReuse},
	{"schedule", "Row-stationary schedule and buffer traffic (dataflow model)", runSchedule},
	{"table8rs", "Table 8 with cycle-accurate residency weights (ablation)", runTable8Residency},
	{"mixed", "Reduced-precision storage protocol (Section 6.1 future work)", runMixed},
	{"pearray", "Cycle-level PE-array vs abstract fault-model cross-check", runPEArray},
	{"latches", "SDC probability per ALU latch class (datapath breakdown)", runLatches},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrepro: ")

	scale := flag.String("scale", "quick", "quick or paper")
	expList := flag.String("exp", "all", "comma-separated experiment ids, or all")
	n := flag.Int("n", 0, "override injections per configuration")
	seed := flag.Int64("seed", 1, "campaign seed")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output); empty = calibrated synthetic weights")
	flag.StringVar(&csvDir, "csv", "", "also write plotting-ready CSV files for the supported experiments into this directory")
	flag.Parse()
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	var cfg core.Config
	switch *scale {
	case "quick":
		cfg = core.Config{Injections: 300, Inputs: 2}
	case "paper":
		cfg = core.PaperScale
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed
	cfg.WeightsDir = *weightsDir
	if *n > 0 {
		cfg.Injections = *n
	}

	want := map[string]bool{}
	if *expList != "all" {
		for _, id := range strings.Split(*expList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !knownExperiment(id) {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, knownIDs())
				os.Exit(2)
			}
		}
	}

	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s ====\n", e.title)
		start := time.Now()
		e.run(cfg)
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s, %s; so far %s)\n", e.id, time.Since(start).Round(time.Millisecond), core.RunnerStats())
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

func knownExperiment(id string) bool {
	for _, e := range experiments {
		if e.id == id {
			return true
		}
	}
	return false
}

func knownIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ", ")
}

// csvDir, when non-empty, receives plotting-ready CSV files.
var csvDir string

// writeCSVFile stores a CSV document for one experiment.
func writeCSVFile(name, doc string) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(csv -> %s)\n", path)
}

func runFig3(cfg core.Config) {
	res := check(core.Fig3(cfg, models.Names, core.AllDataTypes))
	fmt.Print(res.Format())
	writeCSVFile("fig3", res.CSV())
}

func runFig4(cfg core.Config) {
	// The paper shows NiN with the FP types and CaffeNet with the FxP
	// types.
	var docs []string
	for _, c := range []struct {
		net string
		dt  numeric.Type
	}{
		{"NiN", numeric.Float}, {"NiN", numeric.Float16},
		{"CaffeNet", numeric.Fx32RB26}, {"CaffeNet", numeric.Fx32RB10},
	} {
		res := check(core.Fig4(cfg, c.net, c.dt))
		fmt.Print(res.Format())
		docs = append(docs, res.CSV())
	}
	writeCSVFile("fig4", mergeCSV(docs))
}

// mergeCSV concatenates same-schema CSV documents, keeping one header.
func mergeCSV(docs []string) string {
	if len(docs) == 0 {
		return ""
	}
	out := docs[0]
	for _, d := range docs[1:] {
		if i := strings.IndexByte(d, '\n'); i >= 0 {
			out += d[i+1:]
		}
	}
	return out
}

func runFig5(cfg core.Config) {
	res := check(core.Fig5(cfg, "AlexNet", numeric.Float16))
	fmt.Print(res.Format())
	writeCSVFile("fig5", res.CSV())
}

func runTable4(cfg core.Config) {
	fmt.Print(core.FormatTable4(check(core.Table4(cfg, models.Names, numeric.Double))))
}

func runFig6(cfg core.Config) {
	var docs []string
	for _, name := range models.Names {
		res := check(core.Fig6(cfg, name, numeric.Float16))
		fmt.Print(res.Format())
		docs = append(docs, res.CSV())
	}
	writeCSVFile("fig6", mergeCSV(docs))
}

func runFig7(cfg core.Config) {
	n := cfg
	if n.Injections > 200 {
		n.Injections = 200 // serial experiment; distances converge quickly
	}
	var docs []string
	for _, name := range models.Names {
		res := check(core.Fig7(n, name, numeric.Double))
		fmt.Print(res.Format())
		docs = append(docs, res.CSV())
	}
	writeCSVFile("fig7", mergeCSV(docs))
}

func runTable5(cfg core.Config) {
	fmt.Print(check(core.Table5(cfg, "AlexNet", numeric.Float16)).Format())
}

func runTable6(cfg core.Config) {
	cells := check(core.Table6(cfg, models.Names, core.AllDataTypes))
	fmt.Print(core.FormatTable6(cells))
	writeCSVFile("table6", core.Table6CSV(cells))
}

func runTable7(core.Config) {
	fmt.Print(core.FormatTable7(core.Table7()))
}

func runTable8(cfg core.Config) {
	cells := check(core.Table8(cfg, models.Names))
	fmt.Print(core.FormatTable8(cells))
	writeCSVFile("table8", core.Table8CSV(cells))
}

func runFig8(cfg core.Config) {
	rows := check(core.Fig8(cfg, core.SEDNetworks, core.SEDDataTypes))
	fmt.Print(core.FormatFig8(rows))
	writeCSVFile("fig8", core.Fig8CSV(rows))
}

func runTable9(core.Config) {
	fmt.Print(core.FormatTable9(core.Table9()))
}

func runFig9(cfg core.Config) {
	a := check(core.Fig9(cfg, "AlexNet", numeric.Float16))
	b := check(core.Fig9(cfg, "AlexNet", numeric.Fx16RB10))
	fmt.Print(a.Format())
	fmt.Print(b.Format())
	writeCSVFile("fig9", mergeCSV([]string{a.CSV(), b.CSV()}))
}

func runSEDFIT(cfg core.Config) {
	var rows []core.SEDFITRow
	for _, dt := range []numeric.Type{numeric.Float, numeric.Float16} {
		rows = append(rows, check(core.SEDFIT(cfg, "AlexNet", dt)))
	}
	fmt.Print(core.FormatSEDFIT(rows))
}

func runBudget(cfg core.Config) {
	fmt.Print(check(core.BudgetReport(cfg, models.Names)))
}

func runAblation(cfg core.Config) {
	for _, name := range []string{"AlexNet", "CaffeNet"} {
		fmt.Print(check(core.AblateLRN(cfg, name, numeric.Float16)).Format())
	}
}

func runFormats(cfg core.Config) {
	fmt.Print(check(core.FormatRecommendations(cfg, models.Names)))
}

func runReuse(core.Config) {
	fmt.Print(core.ReuseReport(models.Names))
}

func runSchedule(core.Config) {
	fmt.Print(core.ScheduleReport(models.Names))
}

func runTable8Residency(cfg core.Config) {
	fmt.Print(core.FormatTable8(check(core.Table8Residency(cfg, models.Names))))
}

func runMixed(cfg core.Config) {
	var rows []core.MixedPrecisionRow
	for _, st := range []numeric.Type{numeric.Float, numeric.Float16, numeric.Fx16RB10} {
		rows = append(rows, check(core.MixedPrecision(cfg, "AlexNet", numeric.Float, st)))
	}
	fmt.Print(core.FormatMixedPrecision(rows))
}

func runPEArray(cfg core.Config) {
	n := cfg
	if n.Injections > 200 {
		n.Injections = 200
	}
	for _, name := range models.Names {
		fmt.Print(check(core.ValidatePEArray(n, name)).Format())
	}
}

func runLatches(cfg core.Config) {
	var rows []core.LatchRow
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		rows = append(rows, check(core.LatchBreakdown(cfg, "AlexNet", dt))...)
	}
	fmt.Print(core.FormatLatchBreakdown(rows))
}
