// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation section at a CI-friendly scale (see DESIGN.md §4 for
// the experiment index; run cmd/paperrepro -scale paper for the full
// 3000-injection campaigns). Each benchmark reports the experiment's
// headline statistic as a custom metric so the shape results are visible
// directly in the bench output.
package repro

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/harden"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/pearray"
	"repro/internal/rowstat"
	"repro/internal/sdc"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchCfg is the per-iteration campaign scale. Seeds vary per iteration
// so repeated iterations measure fresh injections.
func benchCfg(i int) core.Config {
	return core.Config{Injections: 120, Inputs: 1, Seed: int64(i) + 1}
}

// must unwraps an experiment's (result, error) pair; the benchmarks run
// built-in weights, so an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ---- Figure 3: SDC probability x network x data type ----

func BenchmarkFig3_ConvNet(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		res := must(core.Fig3(benchCfg(i), []string{"ConvNet"}, []numeric.Type{numeric.Fx32RB10, numeric.Fx32RB26}))
		p = res.Rows[0].Prob[sdc.SDC1]
	}
	b.ReportMetric(p*100, "SDC1-rb10-%")
}

func BenchmarkFig3_ImageNetNets(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		res := must(core.Fig3(benchCfg(i), []string{"AlexNet"}, []numeric.Type{numeric.Float16}))
		p = res.Rows[0].Prob[sdc.SDC1]
	}
	b.ReportMetric(p*100, "SDC1-fp16-%")
}

// ---- Figure 4: per-bit SDC probability ----

func BenchmarkFig4_NiN_FLOAT16(b *testing.B) {
	var hi float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 160
		res := must(core.Fig4(cfg, "NiN", numeric.Float16))
		hi = res.Prob[14]
	}
	b.ReportMetric(hi*100, "SDC1-bit14-%")
}

func BenchmarkFig4_CaffeNet_32bRB10(b *testing.B) {
	var hi float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 160
		res := must(core.Fig4(cfg, "CaffeNet", numeric.Fx32RB10))
		hi = res.Prob[30]
	}
	b.ReportMetric(hi*100, "SDC1-bit30-%")
}

// ---- Figure 5: value deviations of SDC vs benign faults ----

func BenchmarkFig5(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		res := must(core.Fig5(benchCfg(i), "AlexNet", numeric.Float16))
		s, _ = res.LargeDeviationShare(64)
	}
	b.ReportMetric(s*100, "SDC-large-dev-%")
}

// ---- Table 4: per-layer value ranges ----

func BenchmarkTable4(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := must(core.Table4(core.Config{Inputs: 2, Seed: int64(i) + 1}, models.Names, numeric.Double))
		rs := rows[1].Ranges // AlexNet
		last = rs[len(rs)-1].Max
	}
	b.ReportMetric(last, "alexnet-L8-max")
}

// ---- Figure 6: per-layer SDC probability ----

func BenchmarkFig6_AlexNet(b *testing.B) {
	var fc float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 160
		res := must(core.Fig6(cfg, "AlexNet", numeric.Float16))
		fc = res.Prob[len(res.Prob)-1]
	}
	b.ReportMetric(fc*100, "SDC1-fc8-%")
}

func BenchmarkFig6_ConvNet(b *testing.B) {
	var fc float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 160
		res := must(core.Fig6(cfg, "ConvNet", numeric.Float16))
		fc = res.Prob[len(res.Prob)-1]
	}
	b.ReportMetric(fc*100, "SDC1-fc5-%")
}

// ---- Figure 7: error distance per layer (LRN masking) ----

func BenchmarkFig7(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 24
		alex := must(core.Fig7(cfg, "AlexNet", numeric.Double))
		if alex.Dist[0] > 0 {
			ratio = alex.Dist[1] / alex.Dist[0]
		}
	}
	b.ReportMetric(ratio, "alexnet-L2/L1-dist")
}

// ---- Table 5: bit-wise spread across layers ----

func BenchmarkTable5(b *testing.B) {
	var l1 float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 160
		res := must(core.Table5(cfg, "AlexNet", numeric.Float16))
		l1 = res.Spread[0]
	}
	b.ReportMetric(l1*100, "spread-L1-%")
}

// ---- Table 6: datapath FIT rates ----

// The per-iteration seed makes every iteration a new spec, so each executes
// a campaign instead of hitting core's runner memo.
func BenchmarkTable6(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		cells := must(core.Table6(benchCfg(i), []string{"ConvNet"}, []numeric.Type{numeric.Fx32RB10}))
		f = cells[0].FIT
	}
	b.ReportMetric(f, "convnet-rb10-FIT")
}

// ---- Table 7: parameter scaling (pure computation) ----

func BenchmarkTable7(b *testing.B) {
	var pes int
	for i := 0; i < b.N; i++ {
		rows := core.Table7()
		pes = rows[1].NumPEs
	}
	b.ReportMetric(float64(pes), "PEs-16nm")
}

// ---- Table 8: Eyeriss buffer SDC and FIT ----

func BenchmarkTable8_ConvNet(b *testing.B) {
	var gb float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 60
		cells := must(core.Table8(cfg, []string{"ConvNet"}))
		gb = cells[0].FIT
	}
	b.ReportMetric(gb, "globalbuf-FIT")
}

func BenchmarkTable8_AlexNet(b *testing.B) {
	var fs float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 40
		cells := must(core.Table8(cfg, []string{"AlexNet"}))
		fs = cells[1].FIT
	}
	b.ReportMetric(fs, "filtersram-FIT")
}

// ---- Figure 8: SED precision and recall ----

func BenchmarkFig8(b *testing.B) {
	var recall float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 80
		rows := must(core.Fig8(cfg, []string{"AlexNet"}, []numeric.Type{numeric.Float}))
		recall = rows[0].Recall
	}
	b.ReportMetric(recall*100, "recall-%")
}

// ---- Figure 9 / Table 9: selective latch hardening ----

func BenchmarkFig9a(b *testing.B) {
	var beta float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 320
		res := must(core.Fig9(cfg, "AlexNet", numeric.Float16))
		beta = res.Beta
	}
	b.ReportMetric(beta, "beta")
}

func BenchmarkFig9bc(b *testing.B) {
	var multi100 float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 320
		res := must(core.Fig9(cfg, "AlexNet", numeric.Fx16RB10))
		ov := res.Overhead["Multi"]
		multi100 = ov[len(ov)-1]
		if math.IsNaN(multi100) {
			multi100 = -1
		}
	}
	b.ReportMetric(multi100*100, "multi-100x-overhead-%")
}

// ---- Section 6.2: SED FIT reduction ----

func BenchmarkSEDFIT(b *testing.B) {
	var after float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 60
		row := must(core.SEDFIT(cfg, "AlexNet", numeric.Float))
		after = row.FITAfter
	}
	b.ReportMetric(after, "FIT-after-SED")
}

// ---- Microbenchmarks: the simulator's hot paths ----

func BenchmarkForwardPass(b *testing.B) {
	for _, name := range models.Names {
		for _, dt := range []numeric.Type{numeric.Double, numeric.Float16, numeric.Fx16RB10} {
			b.Run(name+"/"+dt.String(), func(b *testing.B) {
				net := models.Build(name)
				in := models.InputFor(name, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Forward(dt, in)
				}
			})
		}
	}
}

// BenchmarkCampaignThroughput measures end-to-end injections per second of
// the incremental fault-propagation engine against the dense per-layer
// re-execution baseline (Options.Dense). The golden pass runs outside the
// timed region; each iteration is a fresh block of injections.
// cmd/benchtrack runs the same comparison standalone and records it to
// BENCH_1.json.
func BenchmarkCampaignThroughput(b *testing.B) {
	const perIter = 256
	for _, name := range []string{"AlexNet", "ConvNet"} {
		for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
			for _, mode := range []string{"incremental", "dense"} {
				b.Run(name+"/"+dt.String()+"/"+mode, func(b *testing.B) {
					net := models.Build(name)
					in := models.InputFor(name, 0)
					c := faultinj.New(net, dt, []*tensor.Tensor{in})
					c.Golden(0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.Run(faultinj.Options{N: perIter, Seed: int64(i) + 1, Dense: mode == "dense"})
					}
					b.ReportMetric(float64(b.N*perIter)/b.Elapsed().Seconds(), "inj/s")
				})
			}
		}
	}
}

func BenchmarkMACThroughput(b *testing.B) {
	for _, dt := range core.AllDataTypes {
		b.Run(dt.String(), func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc = dt.MAC(acc, 0.5, 0.25)
				if acc > 100 {
					acc = 0
				}
			}
			_ = acc
		})
	}
}

func BenchmarkHardenMultiPlan(b *testing.B) {
	s := make(harden.Sensitivity, 16)
	s[14], s[13], s[12], s[11] = 0.06, 0.03, 0.01, 0.002
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := harden.MultiPlan(s, 100); !ok {
			b.Fatal("unreachable target")
		}
	}
}

// ---- Extension experiments ----

func BenchmarkAblationLRN(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 100
		res := must(core.AblateLRN(cfg, "AlexNet", numeric.Float16))
		delta = res.AblatedSDC - res.BaselineSDC
	}
	b.ReportMetric(delta*100, "noLRN-minus-baseline-%")
}

func BenchmarkMixedPrecisionStorage(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 80
		row := must(core.MixedPrecision(cfg, "AlexNet", numeric.Float, numeric.Float16))
		f = row.FIT
	}
	b.ReportMetric(f, "fp16-storage-GB-FIT")
}

func BenchmarkRowStationarySchedule(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := rowstat.New(models.Build("AlexNet"), rowstat.Eyeriss16nm)
		eff = s.Efficiency()
	}
	b.ReportMetric(eff*100, "array-efficiency-%")
}

func BenchmarkTable8Residency(b *testing.B) {
	var gb float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(i)
		cfg.Injections = 40
		cells := must(core.Table8Residency(cfg, []string{"ConvNet"}))
		gb = cells[0].FIT
	}
	b.ReportMetric(gb, "globalbuf-FIT")
}

func BenchmarkTrainingStep(b *testing.B) {
	net := models.Build("ConvNet")
	samples := models.TrainingSamplesCapped("ConvNet", 8, 0)
	tr := train.New(net, 0.01, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(samples)
	}
}

func BenchmarkPEArraySim(b *testing.B) {
	conv := models.Build("ConvNet").Layers[0].(*layers.ConvLayer)
	in := models.InputFor("ConvNet", 0)
	sim := pearray.New(conv, numeric.Fx16RB10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in, nil)
	}
}
