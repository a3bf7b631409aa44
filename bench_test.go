// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation section at a CI-friendly scale (see DESIGN.md §4 for
// the experiment index; run cmd/paperrepro -scale paper for the full
// 3000-injection campaigns) and time the simulator's hot paths.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/harden"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/pearray"
	"repro/internal/rowstat"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchCfg is the per-iteration campaign scale. Seeds vary per iteration
// so repeated iterations measure fresh injections.
func benchCfg(i int) core.Config {
	return core.Config{Injections: 120, Inputs: 1, Seed: int64(i) + 1}
}

// BenchmarkExperiment runs every row of core.Experiments on the paper's
// cells. The per-iteration seed makes every iteration new specs, so each
// executes its campaigns instead of hitting core's runner memo.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range core.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(benchCfg(i), e.Cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
// timed region; each iteration is a fresh block of injections. BENCH_1.json
// records the same comparison.
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
						c.Run(faultinj.Options{Options: engine.Options{N: perIter, Seed: int64(i) + 1}, Dense: mode == "dense"})
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

func BenchmarkRowStationarySchedule(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := rowstat.New(models.Build("AlexNet"), rowstat.Eyeriss16nm)
		eff = s.Efficiency()
	}
	b.ReportMetric(eff*100, "array-efficiency-%")
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
