// Command benchtrack measures the fault-injection campaign throughput of
// the incremental propagation engine (network.ForwardFrom with delta
// recompute, masked-fault early exit and the quantized-parameter cache)
// against the dense per-layer re-execution baseline, and records the
// numbers as JSON for regression tracking.
//
// -mode sampling instead measures statistical efficiency: the SDC-1
// confidence-interval half-width of stratified vs uniform site sampling at
// an equal injection budget (the BENCH_4.json acceptance figure).
//
// -mode bitparallel measures the site-draw evaluation modes: legacy
// per-bit incremental injections vs the site-scalar reference vs the
// bit-plane fast path (one chain replay per site plus the analytical
// masking pre-screen), with vs_baseline ratios of bit-plane throughput
// over a baseline document's incremental throughput (the BENCH_6.json
// acceptance figure).
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
//	benchtrack -n 2000 -o BENCH_1.json
//	benchtrack -n 2000 -baseline BENCH_1.json -o BENCH_3.json
//	benchtrack -mode sampling -n 3000 -o BENCH_4.json
//	benchtrack -mode bitparallel -n 4000 -baseline BENCH_3.json -o BENCH_6.json
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
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/stats"
	"repro/internal/systolic"
	"repro/internal/tensor"
)

// Result is one (network, dtype) throughput comparison.
type Result struct {
	Network          string  `json:"network"`
	DType            string  `json:"dtype"`
	Injections       int     `json:"injections"`
	MaskedFrac       float64 `json:"masked_fraction"`
	IncrementalInjPS float64 `json:"incremental_inj_per_sec"`
	DenseInjPS       float64 `json:"dense_inj_per_sec"`
	Speedup          float64 `json:"speedup"`
	// VsBaseline is this run's incremental throughput over the baseline
	// document's incremental throughput for the same (network, dtype)
	// cell; omitted when no baseline was given or it lacks the cell.
	VsBaseline float64 `json:"vs_baseline,omitempty"`
}

// Output is the BENCH_1.json document.
type Output struct {
	Benchmark string `json:"benchmark"`
	Date      string `json:"date"`
	Workers   int    `json:"workers"`
	// Baseline names the document the vs_baseline ratios compare against.
	Baseline string   `json:"baseline,omitempty"`
	Results  []Result `json:"results"`
	// MeanSpeedup is the geometric mean over Results.
	MeanSpeedup float64 `json:"mean_speedup"`
	// ConvNetMeanSpeedup is the geometric mean over the ConvNet rows only
	// — the per-format acceptance figure.
	ConvNetMeanSpeedup float64 `json:"convnet_mean_speedup,omitempty"`
}

// measure runs one campaign mode on a fresh network and returns
// injections per second. The golden pass and site profile are computed
// before timing starts, so the figure isolates per-injection cost.
func measure(name string, dt numeric.Type, n, workers int, dense bool) (injPerSec, maskedFrac float64) {
	net := models.Build(name)
	in := models.InputFor(name, 0)
	c := faultinj.New(net, dt, []*tensor.Tensor{in})
	c.Golden(0)
	opt := faultinj.Options{N: n, Seed: 1, Workers: workers, Dense: dense}
	start := time.Now()
	r := c.Run(opt)
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), float64(r.Masked) / float64(n)
}

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

// BitParallelResult is one (network, dtype) comparison of the three
// evaluation designs at equal injection count.
type BitParallelResult struct {
	Network    string `json:"network"`
	DType      string `json:"dtype"`
	Injections int    `json:"injections"`
	// PreMaskedFrac is the fraction of bit-plane injections the analytical
	// pre-screen proved masked without any replay.
	PreMaskedFrac float64 `json:"pre_masked_fraction"`
	// IncrementalInjPS is the legacy per-bit design (independent
	// (site, bit) draw per injection); SiteScalarInjPS and BitPlaneInjPS
	// are the site-draw modes, which evaluate every bit of a drawn site.
	IncrementalInjPS float64 `json:"incremental_inj_per_sec"`
	SiteScalarInjPS  float64 `json:"site_scalar_inj_per_sec"`
	BitPlaneInjPS    float64 `json:"bitplane_inj_per_sec"`
	// SpeedupVsScalar is BitPlane over SiteScalar — the gain attributable
	// to the plane kernel and pre-screen alone, at identical draws.
	SpeedupVsScalar float64 `json:"speedup_vs_site_scalar"`
	// VsBaseline is BitPlane throughput over the baseline document's
	// incremental throughput for the same cell — the acceptance ratio.
	VsBaseline float64 `json:"vs_baseline,omitempty"`
}

// BitParallelOutput is the BENCH_6.json document.
type BitParallelOutput struct {
	Benchmark string              `json:"benchmark"`
	Date      string              `json:"date"`
	Workers   int                 `json:"workers"`
	Baseline  string              `json:"baseline,omitempty"`
	Results   []BitParallelResult `json:"results"`
	// MeanVsBaseline / ConvNetMeanVsBaseline are geometric means of
	// VsBaseline; the ConvNet figure is the acceptance number (want ≥ 5).
	MeanVsBaseline        float64 `json:"mean_vs_baseline,omitempty"`
	ConvNetMeanVsBaseline float64 `json:"convnet_mean_vs_baseline,omitempty"`
}

// measureEval runs one campaign under the given evaluation mode and
// returns injections per second plus the pre-screened fraction.
func measureEval(name string, dt numeric.Type, n, workers int, eval engine.EvalMode) (injPerSec, preFrac float64) {
	net := models.Build(name)
	in := models.InputFor(name, 0)
	c := faultinj.New(net, dt, []*tensor.Tensor{in})
	c.Golden(0)
	opt := faultinj.Options{N: n, Seed: 1, Workers: workers, Eval: eval}
	start := time.Now()
	r := c.Run(opt)
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), float64(r.PreMasked) / float64(n)
}

// runBitParallel sweeps the BENCH_1 matrix across the three evaluation
// designs and writes the BENCH_6.json document.
func runBitParallel(n, workers int, out, baseline, date string) {
	baseInjPS := map[string]float64{}
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			log.Fatal(err)
		}
		var base Output
		if err := json.Unmarshal(data, &base); err != nil {
			log.Fatalf("decoding %s: %v", baseline, err)
		}
		for _, r := range base.Results {
			baseInjPS[r.Network+"/"+r.DType] = r.IncrementalInjPS
		}
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}

	doc := BitParallelOutput{Benchmark: "BitParallelThroughput", Date: date, Workers: workers, Baseline: baseline}
	matrix := []struct {
		name string
		dts  []numeric.Type
	}{
		{"AlexNet", []numeric.Type{numeric.Float16, numeric.Fx32RB10}},
		{"ConvNet", numeric.Types},
	}
	logAll, logConv, nAll, nConv := 0.0, 0.0, 0, 0
	for _, row := range matrix {
		for _, dt := range row.dts {
			inc, _ := measureEval(row.name, dt, n, workers, engine.EvalPerBit)
			scalar, _ := measureEval(row.name, dt, n, workers, engine.EvalSiteScalar)
			plane, pre := measureEval(row.name, dt, n, workers, engine.EvalSiteBitPlane)
			res := BitParallelResult{
				Network: row.name, DType: dt.String(), Injections: n,
				PreMaskedFrac:    round2(pre),
				IncrementalInjPS: round2(inc),
				SiteScalarInjPS:  round2(scalar),
				BitPlaneInjPS:    round2(plane),
				SpeedupVsScalar:  round2(plane / scalar),
			}
			if b := baseInjPS[res.Network+"/"+res.DType]; b > 0 {
				res.VsBaseline = round2(plane / b)
				logAll += math.Log(plane / b)
				nAll++
				if row.name == "ConvNet" {
					logConv += math.Log(plane / b)
					nConv++
				}
			}
			doc.Results = append(doc.Results, res)
			fmt.Printf("%-8s %-9s perbit %8.1f inj/s   site-scalar %8.1f inj/s   bitplane %9.1f inj/s   pre-masked %4.1f%%   vs-baseline %.2fx\n",
				row.name, dt, inc, scalar, plane, pre*100, res.VsBaseline)
		}
	}
	if nAll > 0 {
		doc.MeanVsBaseline = round2(math.Exp(logAll / float64(nAll)))
	}
	if nConv > 0 {
		doc.ConvNetMeanVsBaseline = round2(math.Exp(logConv / float64(nConv)))
	}
	fmt.Printf("geomean vs-baseline: %.2fx   ConvNet geomean: %.2fx\n", doc.MeanVsBaseline, doc.ConvNetMeanVsBaseline)

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
			Build: func() *network.Network { return models.Build(name) },
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

	mode := flag.String("mode", "throughput", "throughput (BENCH_1-style inj/s comparison), sampling (BENCH_4 equal-budget CI comparison), bitparallel (BENCH_6 site-draw evaluation comparison) or xarch (BENCH_10 four-way row-/weight-/output-/input-stationary SDC at equal FIT budget)")
	n := flag.Int("n", 2000, "injections per campaign")
	workers := flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")
	out := flag.String("o", "BENCH_1.json", "output JSON path")
	baseline := flag.String("baseline", "", "earlier benchtrack JSON to compute vs_baseline throughput ratios against")
	date := flag.String("date", "", "date stamp to embed (default: today)")
	priorDir := flag.String("prior-dir", "", "sampling mode: seed stratified allocations from the strata artifacts a previous -strata-dir run wrote (skips pilots)")
	strataDir := flag.String("strata-dir", "", "sampling mode: write per-(network, dtype) strata artifacts here for later -prior-dir reuse")
	flag.Parse()

	if *n <= 0 {
		log.Fatal("-n must be positive")
	}
	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	}
	switch *mode {
	case "throughput":
		if *priorDir != "" || *strataDir != "" {
			log.Fatal("-prior-dir/-strata-dir only apply to -mode sampling")
		}
	case "sampling":
		runSampling(*n, *workers, *out, *date, *priorDir, *strataDir)
		return
	case "bitparallel":
		if *priorDir != "" || *strataDir != "" {
			log.Fatal("-prior-dir/-strata-dir only apply to -mode sampling")
		}
		runBitParallel(*n, *workers, *out, *baseline, *date)
		return
	case "xarch":
		if *priorDir != "" || *strataDir != "" {
			log.Fatal("-prior-dir/-strata-dir only apply to -mode sampling")
		}
		runXArch(*n, *workers, *out, *date)
		return
	default:
		log.Fatalf("unknown -mode %q (throughput, sampling, bitparallel or xarch)", *mode)
	}
	// baseInjPS maps (network, dtype) to the baseline document's
	// incremental throughput.
	baseInjPS := map[string]float64{}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		var base Output
		if err := json.Unmarshal(data, &base); err != nil {
			log.Fatalf("decoding %s: %v", *baseline, err)
		}
		for _, r := range base.Results {
			baseInjPS[r.Network+"/"+r.DType] = r.IncrementalInjPS
		}
	}
	// Open the output before the (long) measurement phase so a bad path
	// fails in milliseconds, not minutes.
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}

	doc := Output{Benchmark: "CampaignThroughput", Date: *date, Workers: *workers, Baseline: *baseline}
	// AlexNet keeps the two formats BENCH_1 measured (so vs_baseline is
	// meaningful); ConvNet sweeps every numeric format — the acceptance
	// figure for sparse downstream propagation is per-format, not just
	// FLOAT16.
	matrix := []struct {
		name string
		dts  []numeric.Type
	}{
		{"AlexNet", []numeric.Type{numeric.Float16, numeric.Fx32RB10}},
		{"ConvNet", numeric.Types},
	}
	logSpeedup, logConv, nConv := 0.0, 0.0, 0
	for _, row := range matrix {
		for _, dt := range row.dts {
			// Dense first so the incremental run cannot inherit a warm cache
			// indirectly; each mode gets its own fresh network anyway.
			dense, _ := measure(row.name, dt, *n, *workers, true)
			inc, masked := measure(row.name, dt, *n, *workers, false)
			res := Result{
				Network: row.name, DType: dt.String(), Injections: *n,
				MaskedFrac:       round2(masked),
				IncrementalInjPS: round2(inc), DenseInjPS: round2(dense),
				Speedup: round2(inc / dense),
			}
			if b := baseInjPS[res.Network+"/"+res.DType]; b > 0 {
				res.VsBaseline = round2(inc / b)
			}
			doc.Results = append(doc.Results, res)
			logSpeedup += math.Log(inc / dense)
			if row.name == "ConvNet" {
				logConv += math.Log(inc / dense)
				nConv++
			}
			fmt.Printf("%-8s %-9s incremental %8.1f inj/s   dense %8.1f inj/s   speedup %5.2fx   masked %4.1f%%   vs-baseline %.2fx\n",
				row.name, dt, inc, dense, inc/dense, masked*100, res.VsBaseline)
		}
	}
	doc.MeanSpeedup = round2(math.Exp(logSpeedup / float64(len(doc.Results))))
	doc.ConvNetMeanSpeedup = round2(math.Exp(logConv / float64(nConv)))
	fmt.Printf("geomean speedup: %.2fx   ConvNet geomean: %.2fx\n", doc.MeanSpeedup, doc.ConvNetMeanSpeedup)

	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
