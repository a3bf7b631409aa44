package systolic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// newInjector is a one-off injector over net, outside any campaign.
func newInjector(net *network.Network, dt numeric.Type, par Params, flow Dataflow, mbu int) *injector {
	return &injector{schedule: newSchedule(net, dt, par, flow), mbu: mbu}
}

// chainEval is the per-tap oracle of a corruption front's one element: it
// walks the accumulation chain of output element oi of MAC layer l with the
// site's flip applied at step s.K to the target latch — what
// layers.ForwardElement computes under the corresponding Fault (quantization
// is idempotent, so flipping the pre-quantized operand equals macFaulty's
// flip-then-multiply), written out independently of it.
func chainEval(l layers.Layer, dt numeric.Type, in *tensor.Tensor, oi int, s Site, target layers.Target) float64 {
	quant, mac := dt.QuantFunc(), dt.MACFunc()
	step := func(acc, w, x float64, k int) float64 {
		if k == s.K {
			switch target {
			case layers.TargetWeight:
				w = dt.FlipBits(w, s.Bit, s.Width)
			case layers.TargetInput:
				x = dt.FlipBits(x, s.Bit, s.Width)
			}
		}
		acc = mac(acc, w, x)
		if target == layers.TargetAccum && k == s.K {
			acc = dt.FlipBits(acc, s.Bit, s.Width)
		}
		return acc
	}
	switch l := l.(type) {
	case *layers.ConvLayer:
		os := l.OutShape(in.Shape)
		plane := os.H * os.W
		khkw := l.KH * l.KW
		oc, oh, ow := oi/plane, (oi%plane)/os.W, oi%os.W
		acc := quant(l.Bias[oc])
		for k := 0; k < l.MACChainLen(); k++ {
			ic, kh, kw := k/khkw, (k/l.KW)%l.KH, k%l.KW
			ih, iw := oh*l.Stride+kh-l.Pad, ow*l.Stride+kw-l.Pad
			var x float64
			if ih >= 0 && ih < in.Shape.H && iw >= 0 && iw < in.Shape.W {
				x = quant(in.At(ic, ih, iw))
			}
			acc = step(acc, quant(l.Weights[l.WeightIndex(oc, ic, kh, kw)]), x, k)
		}
		return acc
	case *layers.FCLayer:
		acc := quant(l.Bias[oi])
		for k := 0; k < l.In; k++ {
			acc = step(acc, quant(l.Weights[oi*l.In+k]), quant(in.Data[k]), k)
		}
		return acc
	}
	panic("systolic: faulted layer is not a MAC layer")
}

// TestFaultsMatchDenseOracle is the systolic half of the propagation core's
// bit-exactness contract: under every dataflow, for the per-bit design at
// every MBU width and for both site-draw modes, each injection's faulty
// execution must equal the dense oracle's — every corrupted chain replayed
// into a clone of the golden activation, every downstream layer re-executed
// in full — bit for bit on every activation tensor, and the campaign's
// report (outcome counts, per-latch breakdown, ArchMasked, Options.Detector
// tally) must equal the tallies of the oracle's executions drawn from the
// same PRNG stream.
func TestFaultsMatchDenseOracle(t *testing.T) {
	const n = 64
	type mode struct {
		name string
		eval engine.EvalMode
		mbu  int
	}
	modes := []mode{
		{"perbit", engine.EvalPerBit, 1}, {"perbit-mbu2", engine.EvalPerBit, 2}, {"perbit-mbu3", engine.EvalPerBit, 3},
		{"site-scalar", engine.EvalSiteScalar, 1}, {"site-bitplane", engine.EvalSiteBitPlane, 1},
	}
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		for _, dt := range []numeric.Type{numeric.Fx16RB10, numeric.Float16} {
			c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: smallInputs(2)}, Array: tinyArray, Flow: flow}
			plain := buildSmall()
			goldens := make([]*network.Execution, len(c.Inputs))
			for i, in := range c.Inputs {
				goldens[i] = plain.Forward(dt, in)
			}
			det := func(e *network.Execution) bool {
				for _, g := range goldens {
					if e.Input == g.Input {
						return e.Output().Data[g.Top1()] < 0.9*g.Output().Data[g.Top1()]
					}
				}
				panic("execution over an unknown input")
			}
			c.GoldenFn = func(i int, _ func() *network.Execution) *network.Execution { return goldens[i] }
			oracle := newInjector(plain, dt, c.Array, flow, 1)

			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", flow, dt, m.name), func(t *testing.T) {
					opt := Options{N: n, Seed: 1717, Workers: 1, Eval: m.eval, MBU: m.mbu, Detector: det}
					inj := c.newShard(opt)
					sc := c.Net.NewSlotScratch(dt)
					rng := rand.New(rand.NewSource(opt.Seed))
					var want Report
					check := func(g *network.Execution, pos int, s Site) {
						got := inj.execute(sc, g, pos, s)

						li, geo := oracle.macLayers[pos], oracle.geos[pos]
						target, elems := geo.effects(nil, s)
						act := g.Acts[li].Clone()
						for _, oi := range elems {
							act.Data[oi] = chainEval(plain.Layers[li], dt, g.LayerInput(li), oi, s, target)
						}
						ref := plain.ForwardWithActDense(dt, g, li, act)

						for l := range ref.Acts {
							if !tensor.BitIdentical(got.Acts[l], ref.Acts[l]) {
								t.Fatalf("site %+v: layer %d differs from the dense oracle", s, l)
							}
						}
						if got.Masked && got.Acts[len(got.Acts)-1] != g.Acts[len(g.Acts)-1] {
							t.Fatalf("site %+v: masked execution does not alias the golden output", s)
						}
						outcome := sdc.Classify(plain, g, ref)
						if sdc.Classify(inj.net, g, got) != outcome || det(got) != det(ref) {
							t.Fatalf("site %+v: outcome or detector verdict differs from the dense oracle", s)
						}
						want.Counts.Add(outcome)
						want.PerLatch[s.Latch].Add(outcome)
						if geo.PipeMasked(s) {
							want.ArchMasked++
						}
						want.Detection.Tally(outcome.Hit[sdc.SDC1], det(ref))
					}
					if m.eval == engine.EvalPerBit {
						for i := 0; i < n; i++ {
							s, pos := inj.draw(rng, -1, -1)
							check(goldens[i%len(goldens)], pos, s)
						}
					} else {
						width := dt.Width()
						for u := 0; u < engine.DrawUnits(n, width); u++ {
							s, pos := inj.draw(rng, -1, 0)
							for s.Bit = 0; s.Bit < min(width, n-u*width); s.Bit++ {
								check(goldens[u%len(goldens)], pos, s)
							}
						}
					}
					got := c.Run(opt)
					if got.Counts != want.Counts || got.PerLatch != want.PerLatch ||
						got.ArchMasked != want.ArchMasked || got.Detection != want.Detection {
						t.Errorf("campaign report diverged from the dense oracle's tallies:\n got %+v\nwant %+v", got, &want)
					}
				})
			}
		}
	}
}
