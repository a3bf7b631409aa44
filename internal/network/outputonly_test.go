package network_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// tailNet builds a small network ending in one of the tails an output-only
// walk treats apart: a softmax after an FC classifier, a ReLU and a
// full-extent max-pool after a 1×1 CONV (NiN's shape), or a bare FC. Every
// MAC layer but the classifier is followed by a ReLU. Biases lean negative
// so the ReLUs clamp a good share of the lanes, and the classifiers have 32
// classes, so a certificate may decide four of them.
func tailNet(tail int, seed int64) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	conv1 := layers.NewConv("conv1", 2, 6, 3, 1, 1)  // 2×6×6 → 6×6×6
	conv2 := layers.NewConv("conv2", 6, 8, 3, 2, 1)  // 6×3×3 → 8×2×2 after pool
	conv3 := layers.NewConv("conv3", 8, 32, 1, 1, 0) // pointwise classifier
	fc3 := layers.NewFC("fc3", 8*2*2, 24)
	fc4 := layers.NewFC("fc4", 24, 32)
	for _, p := range [][]float64{conv1.Weights, conv2.Weights, conv3.Weights, fc3.Weights, fc4.Weights} {
		for i := range p {
			p[i] = rng.NormFloat64() * 0.5
		}
	}
	for _, b := range [][]float64{conv1.Bias, conv2.Bias, conv3.Bias, fc3.Bias, fc4.Bias} {
		for i := range b {
			b[i] = rng.NormFloat64()*0.3 - 0.2
		}
	}
	ls := []layers.Layer{conv1, layers.NewReLU("relu1"), layers.NewPool("pool1", 2, 2)}
	switch tail {
	case 0: // FC classifier, softmax
		ls = append(ls, conv2, layers.NewReLU("relu2"), fc3, layers.NewReLU("relu3"), fc4, layers.NewSoftmax("prob"))
	case 1: // 1×1 CONV classifier, ReLU, full-extent max-pool
		conv2.Stride = 1 // 6×3×3 → 8×3×3
		ls = append(ls, conv2, layers.NewReLU("relu2"), conv3, layers.NewReLU("relu3"), layers.NewPool("gpool", 3, 3))
	default: // bare FC classifier
		ls = append(ls, conv2, layers.NewReLU("relu2"), fc3, layers.NewReLU("relu3"), fc4)
	}
	n := &network.Network{Name: fmt.Sprintf("tail%d", tail), InShape: tensor.Shape{C: 2, H: 6, W: 6}, Classes: 32, Layers: ls}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	n.EnableQuantCache()
	return n
}

// outputOnlyCase is one fault of the output-only property: the network of
// a tail (tailNet), a format, a struck MAC layer and either a datapath latch
// flip there or a corrupted activation of it walked from the next layer.
type outputOnlyCase struct {
	tail        int
	dt          numeric.Type
	seed        int64
	layer       int // index into the MAC layers
	act         bool
	bit, target int
}

// outputOnlyNets caches each tail's network and its golden executions.
type outputOnlyNets struct {
	nets    map[int]*network.Network
	goldens map[[2]int]*network.Execution
}

func (o *outputOnlyNets) get(tail int, dt numeric.Type) (*network.Network, *network.Execution) {
	if o.nets == nil {
		o.nets, o.goldens = map[int]*network.Network{}, map[[2]int]*network.Execution{}
	}
	n := o.nets[tail]
	if n == nil {
		n = tailNet(tail, 7+int64(tail))
		o.nets[tail] = n
	}
	k := [2]int{tail, int(dt)}
	golden := o.goldens[k]
	if golden == nil {
		in := tensor.New(n.InShape)
		rng := rand.New(rand.NewSource(42))
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64()
		}
		golden = n.Forward(dt, in)
		o.goldens[k] = golden
	}
	return n, golden
}

// check runs case c through the exact walk and twice, cold and warm, through
// one output-only scratch, and holds the output-only runs to the exact one:
// the same outcome under every SDC criterion and the same Masked. Wherever
// an output-only activation differs from the exact one it must hold
// golden's value, and before the network's last MAC layer only where the
// exact value is a lane the next ReLU clamps (≤ 0). It reports whether the
// output-only walk certified the output (unmasked, the last MAC layer's
// activation golden's own) and whether it left a lane golden before that.
func (o *outputOnlyNets) check(c outputOnlyCase) (certified, skipped bool, err error) {
	n, golden := o.get(c.tail, c.dt)
	dt, rng := c.dt, rand.New(rand.NewSource(c.seed))
	macs := n.MACLayerIndices()
	li, last := macs[c.layer%len(macs)], macs[len(macs)-1]

	var exact *network.Execution
	var run func(sc *network.SlotScratch) *network.Execution
	if c.act && li+1 < len(n.Layers) {
		src := golden.Acts[li]
		corrupted := src.Clone()
		changed := rng.Perm(len(src.Data))[:1+rng.Intn(4)]
		for _, i := range changed {
			corrupted.Data[i] = dt.FlipBit(src.Data[i], (c.bit+rng.Intn(3))%dt.Width())
		}
		exact = n.ForwardFromInput(dt, golden, li+1, corrupted, changed)
		run = func(sc *network.SlotScratch) *network.Execution {
			return sc.ForwardFromInput(golden, li+1, corrupted, changed)
		}
	} else {
		fault := layers.Fault{OutputIndex: rng.Intn(len(golden.Acts[li].Data)), Target: layers.Target(c.target % int(layers.NumTargets)), Bit: c.bit % dt.Width()}
		fault.MACStep = rng.Intn(n.Layers[li].(interface{ MACChainLen() int }).MACChainLen())
		fe := fault
		exact = n.ForwardFrom(dt, golden, li, &fe)
		run = func(sc *network.SlotScratch) *network.Execution {
			fo := fault
			return sc.ForwardFrom(golden, li, &fo)
		}
	}
	want := sdc.Classify(n, golden, exact)
	exactActs := make([]*tensor.Tensor, len(exact.Acts))
	for i, a := range exact.Acts {
		exactActs[i] = a.Clone()
	}
	sc := n.NewSlotScratch(dt)
	sc.OutputOnly()
	for _, pass := range []string{"cold", "warm"} {
		got := run(sc)
		if o := sdc.Classify(n, golden, got); o != want || got.Masked != exact.Masked {
			return false, false, fmt.Errorf("%s/%s layer %d (%s): output-only outcome %v masked %v, exact %v masked %v",
				n.Name, dt, li, pass, o.Hit, got.Masked, want.Hit, exact.Masked)
		}
		certified = !got.Masked && got.Acts[last] == golden.Acts[last] && li < last
		for j, a := range got.Acts {
			for i, v := range a.Data {
				e, g := exactActs[j].Data[i], golden.Acts[j].Data[i]
				if math.Float64bits(v) == math.Float64bits(e) {
					continue
				}
				if math.Float64bits(v) != math.Float64bits(g) || (j < last && !(e <= 0)) {
					return false, false, fmt.Errorf("%s/%s layer %d (%s): layer %d element %d is %v output-only, %v exact, %v golden",
						n.Name, dt, li, pass, j, i, v, e, g)
				}
				skipped = skipped || j < last
			}
		}
	}
	return certified, skipped, nil
}

// FuzzOutputOnlyWalk holds the output-only walk (SlotScratch.OutputOnly) to
// the exact one (outputOnlyNets.check) on small networks of every tail, for
// fuzzed faults under every format.
func FuzzOutputOnlyWalk(f *testing.F) {
	var o outputOnlyNets
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), false, uint8(40), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2), uint8(3), true, uint8(12), uint8(1))
	f.Add(int64(3), uint8(2), uint8(5), uint8(1), false, uint8(9), uint8(2))
	f.Add(int64(4), uint8(0), uint8(1), uint8(5), true, uint8(3), uint8(0))
	f.Add(int64(5), uint8(1), uint8(4), uint8(2), false, uint8(25), uint8(3))
	f.Add(int64(6), uint8(0), uint8(3), uint8(2), true, uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, tail, dt, layer uint8, act bool, bit, target uint8) {
		c := outputOnlyCase{tail: int(tail) % 3, dt: numeric.Types[int(dt)%len(numeric.Types)], seed: seed,
			layer: int(layer), act: act, bit: int(bit), target: int(target)}
		if _, _, err := o.check(c); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOutputOnlyWalk runs the fuzzer's property over 400 random faults per
// tail and format, and requires the proofs it holds to be taken: on every
// float format, lanes left golden before the classifier on every tail, and
// certified outputs on both classifier tails.
func TestOutputOnlyWalk(t *testing.T) {
	var o outputOnlyNets
	rng := rand.New(rand.NewSource(3))
	for tail := range 3 {
		for _, dt := range numeric.Types {
			var certified, skipped int
			for i := 0; i < 400; i++ {
				c := outputOnlyCase{tail: tail, dt: dt, seed: rng.Int63(), layer: rng.Intn(8), act: rng.Intn(2) == 0,
					bit: rng.Intn(64), target: rng.Intn(4)}
				cert, skip, err := o.check(c)
				if err != nil {
					t.Fatal(err)
				}
				if cert {
					certified++
				}
				if skip {
					skipped++
				}
			}
			t.Logf("tail %d %s: %d certified, %d with lanes left golden", tail, dt, certified, skipped)
			if dt.IsFloat() && (skipped == 0 || (tail < 2 && certified == 0)) {
				t.Errorf("tail %d %s: %d certified, %d with lanes left golden: a proof is never taken", tail, dt, certified, skipped)
			}
		}
	}
}

// TestCertificateEdges pins the two conditions a classifier certificate
// cannot do without, on a 16-class FC → FC → softmax network under DOUBLE
// whose classifier reads three activations: logits (h0, h1, −100, …) with
// golden h = (0, 2^-10, ½), and h2 weighed by 0 in every row.
//
//   - A fault that lifts h0 to 2^-62 below h1 leaves class 1 the larger
//     logit, but the softmax rounds both exponentials to 1 and ranks class
//     0 first: SDC-1. Only the rounding margin keeps the certificate off.
//   - A fault in h2 moves no logit: the exact walk masks it. Only the
//     witness (some replayed class off golden) keeps the certificate off.
func TestCertificateEdges(t *testing.T) {
	fca, fcb := layers.NewFC("fca", 1, 3), layers.NewFC("fcb", 3, 16)
	fca.Weights[1], fca.Weights[2] = 0x1p-10, 0.5
	fcb.Weights[0], fcb.Weights[4] = 1, 1 // row 0 reads h0, row 1 reads h1
	for c := 2; c < 16; c++ {
		fcb.Bias[c] = -100
	}
	n := &network.Network{Name: "edges", InShape: tensor.Shape{C: 1, H: 1, W: 1}, Classes: 16,
		Layers: []layers.Layer{fca, fcb, layers.NewSoftmax("prob")}}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	n.EnableQuantCache()
	dt := numeric.Double
	golden := n.Forward(dt, tensor.FromSlice(tensor.Shape{C: 1, H: 1, W: 1}, []float64{1}))
	for _, tc := range []struct {
		name string
		at   int
		v    float64
	}{{"argmax margin", 0, 0x1p-10 - 0x1p-62}, {"witness", 2, 0.75}} {
		h := golden.Acts[0].Clone()
		h.Data[tc.at] = tc.v
		exact := n.ForwardFromInput(dt, golden, 1, h, []int{tc.at})
		want, masked := sdc.Classify(n, golden, exact), exact.Masked
		sc := n.NewSlotScratch(dt)
		sc.OutputOnly()
		got := sc.ForwardFromInput(golden, 1, h, []int{tc.at})
		if o := sdc.Classify(n, golden, got); o != want || got.Masked != masked {
			t.Errorf("%s: output-only outcome %v masked %v, exact %v masked %v", tc.name, o.Hit, got.Masked, want.Hit, masked)
		}
	}
}
