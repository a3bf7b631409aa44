// Command benchtrack produces the repo's two paper-extension figures as
// JSON. Timings are not its business: throughput, per-layer cost and the
// evaluation-mode comparison are measured by the one benchmark harness
// (bash bench/run.sh; BENCH_1/3/6.json are its frozen predecessors).
//
// -mode sampling measures statistical efficiency: the SDC-1
// confidence-interval half-width of stratified vs uniform site sampling at
// an equal injection budget (the BENCH_4.json acceptance figure).
//
// -mode xarch compares the four PE-array dataflows at an equal FIT
// budget: the row-stationary datapath (internal/faultinj, the paper's
// Eyeriss abstraction) vs the weight-, output- and input-stationary
// systolic arrays (internal/systolic), all sized to the same 1344-PE,
// 4-latch exposed bit count — the equality is runtime-asserted at every
// word width, and any architecture that cannot meet the budget is logged
// and skipped — so the resulting FIT ratios isolate what the dataflow,
// not the area, does to error propagation (the BENCH_10.json acceptance
// figure).
//
// Usage:
//
//	benchtrack -mode sampling -n 3000 -o BENCH_4.json
//	benchtrack -mode xarch -n 3000 -o BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/fit"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/stats"
	"repro/internal/systolic"
	"repro/internal/tensor"
)

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// SamplingResult is one (network, dtype) equal-budget comparison of the
// SDC-1 confidence interval under uniform vs stratified site sampling.
type SamplingResult struct {
	Network    string `json:"network"`
	DType      string `json:"dtype"`
	Injections int    `json:"injections"`
	PilotN     int    `json:"pilot_n"`
	// UniformSDC1/CI are the pooled estimate and 95% half-width of the
	// uniform campaign; StratifiedSDC1/CI the Horvitz–Thompson estimate and
	// half-width of the stratified campaign at the same total budget.
	UniformSDC1    float64 `json:"uniform_sdc1"`
	UniformCI      float64 `json:"uniform_ci95"`
	StratifiedSDC1 float64 `json:"stratified_sdc1"`
	StratifiedCI   float64 `json:"stratified_ci95"`
	// CIRatio is UniformCI / StratifiedCI — how many times narrower the
	// stratified interval is at equal budget.
	CIRatio float64 `json:"ci_ratio"`
}

// SamplingOutput is the BENCH_4.json document.
type SamplingOutput struct {
	Benchmark string           `json:"benchmark"`
	Date      string           `json:"date"`
	Workers   int              `json:"workers"`
	Results   []SamplingResult `json:"results"`
	// ConvNetMeanCIRatio is the geometric mean of CIRatio over the ConvNet
	// rows — the acceptance figure (want ≥ 1.5).
	ConvNetMeanCIRatio float64 `json:"convnet_mean_ci_ratio"`
}

// strataArtifactPath names the per-(network, dtype) strata artifact inside
// a -strata-dir / -prior-dir directory.
func strataArtifactPath(dir, name string, dt numeric.Type) string {
	return filepath.Join(dir, fmt.Sprintf("%s_%s.strata.json", name, dt))
}

// measureSampling runs one uniform and one stratified campaign of n
// injections on a fresh network and compares their SDC-1 intervals. A
// priorDir artifact turns the stratified run pilot-free (the whole budget
// is Neyman-allocated from the previous run's strata); a strataDir
// persists this run's strata for such reuse.
func measureSampling(name string, dt numeric.Type, n, workers int, priorDir, strataDir string) SamplingResult {
	net := models.Build(name)
	in := models.InputFor(name, 0)
	c := faultinj.New(net, dt, []*tensor.Tensor{in})
	c.Golden(0)

	uni := c.Run(faultinj.Options{N: n, Seed: 1, Workers: workers})
	up := stats.Proportion{
		Successes: uni.Counts.Hits[sdc.SDC1],
		Trials:    uni.Counts.DefinedTrials[sdc.SDC1],
	}

	sopt := faultinj.Options{N: n, Seed: 1, Workers: workers, Sampling: engine.SamplingStratified}
	pilot, _ := engine.PilotBudget(n, 0)
	var pilotStrata *engine.StrataSummary
	if priorDir != "" {
		a, err := engine.ReadStrataArtifact(strataArtifactPath(priorDir, name, dt))
		if err != nil {
			log.Fatal(err)
		}
		sopt.Prior, sopt.PilotN, pilot = a.Prior(), -1, 0
	} else {
		sopt.OnPilotStrata = func(s *engine.StrataSummary) { pilotStrata = s }
	}
	str := c.Run(sopt)
	if strataDir != "" {
		err := engine.WriteStrataArtifact(strataArtifactPath(strataDir, name, dt), &engine.StrataArtifact{
			Surface: "datapath", Net: name, DType: dt.String(),
			N: n, PilotN: pilot, Pilot: pilotStrata, Total: str.Strata,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	sp, sci := str.SDCEstimate(sdc.SDC1)

	res := SamplingResult{
		Network: name, DType: dt.String(), Injections: n, PilotN: pilot,
		UniformSDC1: up.P(), UniformCI: up.CI95(),
		StratifiedSDC1: sp, StratifiedCI: sci,
	}
	if res.StratifiedCI > 0 {
		res.CIRatio = round2(res.UniformCI / res.StratifiedCI)
	}
	return res
}

// runSampling sweeps ConvNet across every numeric format and writes the
// BENCH_4.json equal-budget CI comparison.
func runSampling(n, workers int, out, date, priorDir, strataDir string) {
	if strataDir != "" {
		if err := os.MkdirAll(strataDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	doc := SamplingOutput{Benchmark: "SamplingEfficiency", Date: date, Workers: workers}
	logRatio, nConv := 0.0, 0
	for _, dt := range numeric.Types {
		res := measureSampling("ConvNet", dt, n, workers, priorDir, strataDir)
		doc.Results = append(doc.Results, res)
		if res.CIRatio > 0 {
			logRatio += math.Log(res.CIRatio)
			nConv++
		}
		fmt.Printf("%-8s %-9s uniform %.3f%% ±%.3f%%   stratified %.3f%% ±%.3f%%   CI ratio %.2fx\n",
			res.Network, res.DType, 100*res.UniformSDC1, 100*res.UniformCI,
			100*res.StratifiedSDC1, 100*res.StratifiedCI, res.CIRatio)
	}
	if nConv > 0 {
		doc.ConvNetMeanCIRatio = round2(math.Exp(logRatio / float64(nConv)))
	}
	fmt.Printf("ConvNet geomean CI ratio: %.2fx\n", doc.ConvNetMeanCIRatio)

	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// XArchEntry is one architecture's leg of the equal-FIT comparison:
// "row" is the row-stationary datapath; "weight", "output" and "input"
// are the three systolic dataflows.
type XArchEntry struct {
	Arch string `json:"arch"`
	// SDC1/CI are the SDC-1 estimate and 95% half-width at the shared
	// injection budget and seed; FIT is the Eq. 1 contribution at the
	// shared latch-bit budget.
	SDC1 float64 `json:"sdc1"`
	CI   float64 `json:"ci95"`
	FIT  float64 `json:"fit"`
	// FITRatio is this architecture's FIT over the row-stationary FIT —
	// above 1 means this dataflow propagates more upsets into SDCs.
	// Omitted on the row-stationary leg itself.
	FITRatio float64 `json:"fit_ratio,omitempty"`
	// ArchMaskedFrac is the fraction of injections masked architecturally
	// (pipeline faults at a column-tile edge with no downstream PE) — a
	// propagation sink the row-stationary model has no analogue of.
	// Systolic legs only.
	ArchMaskedFrac float64 `json:"arch_masked_fraction,omitempty"`
}

// XArchResult is one (network, dtype) equal-FIT-budget comparison across
// the four PE-array architectures.
type XArchResult struct {
	Network    string `json:"network"`
	DType      string `json:"dtype"`
	Injections int    `json:"injections"`
	// LatchBits is the exposed latch-bit count every architecture is
	// sized to (1344 PEs × 4 latches × word width) — the shared raw-fault
	// budget of the comparison.
	LatchBits int64        `json:"latch_bits"`
	Arches    []XArchEntry `json:"architectures"`
}

// XArchOutput is the BENCH_10.json document.
type XArchOutput struct {
	Benchmark string        `json:"benchmark"`
	Date      string        `json:"date"`
	Workers   int           `json:"workers"`
	Results   []XArchResult `json:"results"`
	// ConvNetMeanFITRatio maps each systolic dataflow to the geometric
	// mean of its FITRatio over the ConvNet rows — the cross-architecture
	// acceptance figures.
	ConvNetMeanFITRatio map[string]float64 `json:"convnet_mean_fit_ratio"`
}

// xarchArray is the systolic array sized to the row-stationary comparison
// point: 42 × 32 = 1344 PEs, matching eyeriss.Params16nm.NumPEs with the
// same four latches per PE, so every architecture exposes identical
// latch-bit counts at every word width.
var xarchArray = systolic.Params{Rows: 42, Cols: 32}

// xarchFlows are the systolic dataflow legs of the comparison.
var xarchFlows = []systolic.Dataflow{
	systolic.WeightStationary, systolic.OutputStationary, systolic.InputStationary,
}

// measureXArch runs the four architectures' campaigns at equal injection
// budget and seed and compares their SDC-at-equal-FIT figures. The
// latch-bit budget equality is asserted per architecture; a leg whose bit
// count cannot match the row-stationary budget is logged and skipped
// rather than silently compared at unequal area.
func measureXArch(name string, dt numeric.Type, n, workers int) XArchResult {
	net := models.Build(name)
	in := models.InputFor(name, 0)

	rc := faultinj.New(net, dt, []*tensor.Tensor{in})
	rc.Golden(0)
	row := rc.Run(faultinj.Options{N: n, Seed: 1, Workers: workers})
	rp := stats.Proportion{
		Successes: row.Counts.Hits[sdc.SDC1],
		Trials:    row.Counts.DefinedTrials[sdc.SDC1],
	}
	budget := eyeriss.Params16nm.Datapath(dt).TotalLatchBits()
	rowFIT := fit.Component{Name: "row-stationary datapath", Bits: budget, SDCProb: rp.P()}.FIT()

	res := XArchResult{
		Network: name, DType: dt.String(), Injections: n, LatchBits: budget,
		Arches: []XArchEntry{{Arch: "row", SDC1: rp.P(), CI: rp.CI95(), FIT: rowFIT}},
	}
	for _, flow := range xarchFlows {
		if bits := systolic.LatchBits(xarchArray, dt); bits != budget {
			log.Printf("xarch: skipping %s-stationary at %s: %d latch bits vs the %d-bit row-stationary budget",
				flow, dt, bits, budget)
			continue
		}
		wc := &systolic.Campaign{
			Net:   models.Build(name),
			DType: dt, Inputs: []*tensor.Tensor{in}, Array: xarchArray, Flow: flow,
		}
		ws := wc.Run(systolic.Options{N: n, Seed: 1, Workers: workers})
		wp := stats.Proportion{
			Successes: ws.Counts.Hits[sdc.SDC1],
			Trials:    ws.Counts.DefinedTrials[sdc.SDC1],
		}
		e := XArchEntry{
			Arch: flow.String(), SDC1: wp.P(), CI: wp.CI95(),
			FIT:            systolic.FITComponent(budget, wp.P()).FIT(),
			ArchMaskedFrac: round2(float64(ws.ArchMasked) / float64(n)),
		}
		if rowFIT > 0 {
			e.FITRatio = round2(e.FIT / rowFIT)
		}
		res.Arches = append(res.Arches, e)
	}
	return res
}

// runXArch sweeps ConvNet across every numeric format and writes the
// BENCH_10.json cross-architecture comparison.
func runXArch(n, workers int, out, date string) {
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	doc := XArchOutput{Benchmark: "CrossArchitecture", Date: date, Workers: workers}
	logRatio, nRatio := map[string]float64{}, map[string]int{}
	for _, dt := range numeric.Types {
		res := measureXArch("ConvNet", dt, n, workers)
		doc.Results = append(doc.Results, res)
		fmt.Printf("%-8s %-9s", res.Network, res.DType)
		for _, e := range res.Arches {
			fmt.Printf("   %s %.3f%% ±%.3f%% (FIT %.4g", e.Arch, 100*e.SDC1, 100*e.CI, e.FIT)
			if e.FITRatio > 0 {
				logRatio[e.Arch] += math.Log(e.FITRatio)
				nRatio[e.Arch]++
				fmt.Printf(", ratio %.2fx", e.FITRatio)
			}
			fmt.Print(")")
		}
		fmt.Println()
	}
	doc.ConvNetMeanFITRatio = map[string]float64{}
	for arch, lr := range logRatio {
		doc.ConvNetMeanFITRatio[arch] = round2(math.Exp(lr / float64(nRatio[arch])))
	}
	fmt.Printf("ConvNet geomean FIT ratios vs row-stationary: weight %.2fx   output %.2fx   input %.2fx\n",
		doc.ConvNetMeanFITRatio["weight"], doc.ConvNetMeanFITRatio["output"], doc.ConvNetMeanFITRatio["input"])

	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtrack: ")

	mode := flag.String("mode", "", "sampling (BENCH_4 equal-budget CI comparison) or xarch (BENCH_10 four-way row-/weight-/output-/input-stationary SDC at equal FIT budget)")
	n := flag.Int("n", 2000, "injections per campaign")
	workers := flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")
	out := flag.String("o", "", "output JSON path")
	date := flag.String("date", "", "date stamp to embed (default: today)")
	priorDir := flag.String("prior-dir", "", "sampling mode: seed stratified allocations from the strata artifacts a previous -strata-dir run wrote (skips pilots)")
	strataDir := flag.String("strata-dir", "", "sampling mode: write per-(network, dtype) strata artifacts here for later -prior-dir reuse")
	flag.Parse()

	if *n <= 0 {
		log.Fatal("-n must be positive")
	}
	if *out == "" {
		log.Fatal("-o is required")
	}
	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	}
	switch *mode {
	case "sampling":
		runSampling(*n, *workers, *out, *date, *priorDir, *strataDir)
	case "xarch":
		if *priorDir != "" || *strataDir != "" {
			log.Fatal("-prior-dir/-strata-dir only apply to -mode sampling")
		}
		runXArch(*n, *workers, *out, *date)
	default:
		log.Fatalf("unknown -mode %q (sampling or xarch; throughput is bench/run.sh's)", *mode)
	}
}
