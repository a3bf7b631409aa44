package eyeriss

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

// buildTwoConv is buildSmall with a second CONV block, so buffer faults also
// strike a CONV layer whose ifmap is a layer output (its own pre-quantized
// view) and must cross a downstream CONV cone.
func buildTwoConv() *network.Network {
	conv1 := layers.NewConv("conv1", 1, 3, 3, 1, 1)
	for i := range conv1.Weights {
		conv1.Weights[i] = 0.17 * float64(i%7-3)
	}
	conv2 := layers.NewConv("conv2", 3, 4, 3, 1, 0)
	for i := range conv2.Weights {
		conv2.Weights[i] = 0.11 * float64(i%5-2)
	}
	fc := layers.NewFC("fc3", 4*2*2, 6)
	for i := range fc.Weights {
		fc.Weights[i] = 0.09 * float64(i%9-4)
	}
	n := &network.Network{
		Name:    "twoconv",
		InShape: tensor.Shape{C: 1, H: 8, W: 8},
		Classes: 6,
		Layers: []layers.Layer{
			conv1, layers.NewReLU("relu1"), layers.NewPool("pool1", 2, 2),
			conv2, layers.NewReLU("relu2"),
			fc, layers.NewSoftmax("prob"),
		},
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

// denseEval is the dense oracle of injector.eval — the fault models as they
// ran before the delta path: corrupt the word, then re-execute the struck
// layer and every layer after it in full, on a private cache-less network.
func denseEval(plain *network.Network, dt numeric.Type, b Buffer, g *network.Execution, s site, width int) *network.Execution {
	switch b {
	case GlobalBuffer:
		in := g.LayerInput(s.li).Clone()
		in.Data[s.word] = dt.FlipBits(in.Data[s.word], s.bit, width)
		return plain.ForwardFromInputDense(dt, g, s.li, in)
	case FilterSRAM:
		var wts []float64
		switch l := plain.Layers[s.li].(type) {
		case *layers.ConvLayer:
			wts = l.Weights
		case *layers.FCLayer:
			wts = l.Weights
		}
		orig := wts[s.word]
		wts[s.word] = dt.FlipBits(orig, s.bit, width)
		faulty := plain.ForwardFromInputDense(dt, g, s.li, g.LayerInput(s.li))
		wts[s.word] = orig
		return faulty
	case ImgReg:
		act := g.Acts[s.li].Clone()
		if s.oh >= 0 {
			in := g.LayerInput(s.li)
			conv := plain.Layers[s.li].(*layers.ConvLayer)
			corrupt := dt.FlipBits(in.At(s.ic, s.ih, s.iw), s.bit, width)
			for ow, v := range recomputeRow(dt, conv, in, act.Shape, s, corrupt) {
				act.Set(s.oc, s.oh, ow, v)
			}
		}
		return plain.ForwardWithActDense(dt, g, s.li, act)
	case PSumReg:
		f := &layers.Fault{OutputIndex: s.word, MACStep: s.step, Target: layers.TargetAccum, Bit: s.bit, Width: width}
		return plain.ForwardFromDense(dt, g, s.li, f)
	}
	panic("unknown buffer")
}

// recomputeRow is the per-tap oracle of the Img REG front: output row
// (s.oc, s.oh) of conv — os is the layer's output shape — walked tap by tap
// with the input value at (s.ic, s.ih, s.iw) replaced by corrupt.
func recomputeRow(dt numeric.Type, conv *layers.ConvLayer, in *tensor.Tensor, os tensor.Shape, s site, corrupt float64) []float64 {
	row := make([]float64, os.W)
	bias := dt.Quantize(conv.Bias[s.oc])
	for ow := range row {
		acc := bias
		for c := 0; c < conv.InC; c++ {
			for kh := 0; kh < conv.KH; kh++ {
				y := s.oh*conv.Stride + kh - conv.Pad
				for kw := 0; kw < conv.KW; kw++ {
					x := ow*conv.Stride + kw - conv.Pad
					var v float64
					if y >= 0 && y < in.Shape.H && x >= 0 && x < in.Shape.W {
						if c == s.ic && y == s.ih && x == s.iw {
							v = corrupt
						} else {
							v = in.At(c, y, x)
						}
					}
					acc = dt.MAC(acc, conv.Weights[conv.WeightIndex(s.oc, c, kh, kw)], v)
				}
			}
		}
		row[ow] = acc
	}
	return row
}

// TestBufferFaultsMatchDenseOracle is the per-surface half of the
// propagation core's bit-exactness contract: for every buffer class, under
// the per-bit design at every MBU width and under both site-draw modes,
// each injection's faulty execution must equal the dense oracle's bit for
// bit on every activation tensor, a Masked result must be one the oracle
// also finds identical to golden, and the campaign's report — outcome
// counts and Options.Detector tally — must equal the tallies of the
// oracle's executions drawn from the same PRNG stream.
func TestBufferFaultsMatchDenseOracle(t *testing.T) {
	const n = 48
	type mode struct {
		name string
		eval engine.EvalMode
		mbu  int
	}
	modes := []mode{
		{"perbit", engine.EvalPerBit, 1}, {"perbit-mbu2", engine.EvalPerBit, 2}, {"perbit-mbu3", engine.EvalPerBit, 3},
		{"site-scalar", engine.EvalSiteScalar, 1}, {"site-bitplane", engine.EvalSiteBitPlane, 1},
	}
	for _, build := range []func() *network.Network{buildSmall, buildTwoConv} {
		for _, dt := range []numeric.Type{numeric.Fx16RB10, numeric.Float16} {
			c := &Campaign{Campaign: engine.Campaign{Net: build(), DType: dt, Inputs: smallInputs(2)}}
			plain := build()
			goldens := make([]*network.Execution, len(c.Inputs))
			for i, in := range c.Inputs {
				goldens[i] = plain.Forward(dt, in)
			}
			// A detector that fires on a fair share of faulty runs: the
			// golden top-1 confidence dropped.
			det := func(e *network.Execution) bool {
				for _, g := range goldens {
					if e.Input == g.Input {
						return e.Output().Data[g.Top1()] < 0.9*g.Output().Data[g.Top1()]
					}
				}
				panic("execution over an unknown input")
			}
			c.GoldenFn = func(i int, _ func() *network.Execution) *network.Execution { return goldens[i] }

			for _, b := range Buffers {
				for _, m := range modes {
					t.Run(fmt.Sprintf("%s/%s/%v/%s", plain.Name, dt, b, m.name), func(t *testing.T) {
						opt := Options{N: n, Seed: 4242, Workers: 1, Eval: m.eval, MBU: m.mbu, Detector: det}
						inj := c.newShard(opt)
						sc := c.Net.NewSlotScratch(dt)
						rng := rand.New(rand.NewSource(opt.Seed))
						var want Report
						masked := 0
						check := func(g *network.Execution, s site) {
							got := inj.eval(sc, b, g, s, m.mbu)
							ref := denseEval(plain, dt, b, g, s, m.mbu)
							for l := range ref.Acts {
								if !tensor.BitIdentical(got.Acts[l], ref.Acts[l]) {
									t.Fatalf("site %+v: layer %d differs from the dense oracle", s, l)
								}
							}
							if got.Masked {
								masked++
								if got.Acts[len(got.Acts)-1] != g.Acts[len(g.Acts)-1] {
									t.Fatalf("site %+v: masked execution does not alias the golden output", s)
								}
							}
							outcome := sdc.Classify(plain, g, ref)
							if sdc.Classify(inj.net, g, got) != outcome || det(got) != det(ref) {
								t.Fatalf("site %+v: outcome or detector verdict differs from the dense oracle", s)
							}
							want.Counts.Add(outcome)
							want.Detection.Tally(outcome.Hit[sdc.SDC1], det(ref))
						}
						if m.eval == engine.EvalPerBit {
							for i := 0; i < n; i++ {
								g := goldens[i%len(goldens)]
								check(g, inj.draw(rng, b, g, -1, -1))
							}
						} else {
							width := dt.Width()
							for u := 0; u < engine.DrawUnits(n, width); u++ {
								g := goldens[u%len(goldens)]
								s := inj.draw(rng, b, g, -1, 0)
								for s.bit = 0; s.bit < min(width, n-u*width); s.bit++ {
									check(g, s)
								}
							}
						}
						got := c.Run(b, opt)
						if got.Counts != want.Counts || got.Detection != want.Detection {
							t.Errorf("campaign report diverged from the dense oracle's tallies:\n got %+v %+v\nwant %+v %+v",
								got.Counts, got.Detection, want.Counts, want.Detection)
						}
						t.Logf("%d of %d injections masked", masked, n)
					})
				}
			}
		}
	}
}
