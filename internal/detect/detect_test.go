package detect

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

func detNet() *network.Network {
	conv := layers.NewConv("conv1", 1, 3, 3, 1, 1)
	for i := range conv.Weights {
		conv.Weights[i] = 0.2 * float64(i%5-2)
	}
	fc := layers.NewFC("fc2", 3*3*3, 5)
	for i := range fc.Weights {
		fc.Weights[i] = 0.1 * float64(i%7-3)
	}
	n := &network.Network{
		Name:    "det",
		InShape: tensor.Shape{C: 1, H: 6, W: 6},
		Classes: 5,
		Layers: []layers.Layer{
			conv,
			layers.NewReLU("relu1"),
			layers.NewPool("pool1", 2, 2),
			fc,
			layers.NewSoftmax("prob"),
		},
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func detInputs(start, n int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		img := dataset.Image(dataset.CIFARLike, 6, start+i)
		one := tensor.New(tensor.Shape{C: 1, H: 6, W: 6})
		copy(one.Data, img.Data[:36])
		ins[i] = one
	}
	return ins
}

func TestLearnProducesBoundsPerBlock(t *testing.T) {
	n := detNet()
	d := Learn(n, numeric.Float16, detInputs(0, 5), DefaultCushion)
	if len(d.Bounds) != n.NumBlocks() {
		t.Fatalf("bounds = %d, want %d blocks", len(d.Bounds), n.NumBlocks())
	}
	for i, r := range d.Bounds {
		if r.Min > r.Max {
			t.Errorf("block %d bounds inverted: %+v", i, r)
		}
	}
}

func TestCushionWidensBounds(t *testing.T) {
	n := detNet()
	tight := Learn(n, numeric.Float16, detInputs(0, 3), 0)
	wide := Learn(n, numeric.Float16, detInputs(0, 3), DefaultCushion)
	for i := range tight.Bounds {
		if wide.Bounds[i].Max < tight.Bounds[i].Max {
			t.Errorf("block %d: cushion shrank max", i)
		}
		if wide.Bounds[i].Min > tight.Bounds[i].Min {
			t.Errorf("block %d: cushion raised min", i)
		}
	}
	// The cushion is exactly 10% of the magnitude.
	r0 := tight.Bounds[0]
	w0 := wide.Bounds[0]
	if r0.Max > 0 && w0.Max != r0.Max*1.1 {
		t.Errorf("cushioned max = %v, want %v", w0.Max, r0.Max*1.1)
	}
}

func TestTrainingRunsPassDetection(t *testing.T) {
	// The detector must not flag the very executions it learned from.
	n := detNet()
	ins := detInputs(0, 5)
	d := Learn(n, numeric.Float16, ins, DefaultCushion)
	for i, in := range ins {
		if d.Check(n, n.Forward(numeric.Float16, in)) {
			t.Errorf("training input %d flagged", i)
		}
	}
}

func TestFalseAlarmRateLowOnHeldOut(t *testing.T) {
	n := detNet()
	d := Learn(n, numeric.Float16, detInputs(0, 10), DefaultCushion)
	rate := d.FalseAlarmRate(n, detInputs(100, 10))
	if rate > 0.3 {
		t.Errorf("false alarm rate on held-out inputs = %v, want <= 0.3", rate)
	}
}

func TestDetectsLargeDeviation(t *testing.T) {
	// An execution with an out-of-range activation must be flagged.
	n := detNet()
	ins := detInputs(0, 3)
	d := Learn(n, numeric.Float16, ins, DefaultCushion)
	golden := n.Forward(numeric.Float16, ins[0])
	// Corrupt the conv output hugely and rerun the tail.
	act := golden.Acts[0].Clone()
	act.Data[0] = numeric.Float16.Quantize(d.Bounds[0].Max * 1000)
	faulty := n.ForwardWithAct(numeric.Float16, golden, 0, act, []int{0})
	if !d.Check(n, faulty) {
		t.Error("large out-of-range deviation not detected")
	}
}

func TestCheckBlock(t *testing.T) {
	n := detNet()
	d := Learn(n, numeric.Float16, detInputs(0, 3), DefaultCushion)
	ok := tensor.NewVector(4)
	ok.Fill((d.Bounds[0].Min + d.Bounds[0].Max) / 2)
	if d.CheckBlock(0, ok) {
		t.Error("in-range block flagged")
	}
	bad := tensor.NewVector(4)
	bad.Fill(d.Bounds[0].Max*1.5 + 1)
	if !d.CheckBlock(0, bad) {
		t.Error("out-of-range block not flagged")
	}
}

func TestCheckFlagsNaN(t *testing.T) {
	n := detNet()
	d := Learn(n, numeric.Float16, detInputs(0, 3), DefaultCushion)
	bad := tensor.NewVector(4)
	bad.Data[2] = nan()
	if !d.CheckBlock(0, bad) {
		t.Error("NaN activation not flagged")
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestLearnPanicsWithoutInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Learn without inputs did not panic")
		}
	}()
	Learn(detNet(), numeric.Float16, nil, DefaultCushion)
}

func TestCheckPanicsOnBlockMismatch(t *testing.T) {
	n := detNet()
	d := Learn(n, numeric.Float16, detInputs(0, 2), DefaultCushion)
	d.Bounds = d.Bounds[:1]
	defer func() {
		if recover() == nil {
			t.Error("Check with mismatched bounds did not panic")
		}
	}()
	d.Check(n, n.Forward(numeric.Float16, detInputs(0, 1)[0]))
}

func TestLearnUsesAllInputs(t *testing.T) {
	// Learning from more inputs can only widen the uncushioned bounds.
	n := detNet()
	one := Learn(n, numeric.Float16, detInputs(0, 1), 0)
	many := Learn(n, numeric.Float16, detInputs(0, 8), 0)
	for b := range one.Bounds {
		if many.Bounds[b].Max < one.Bounds[b].Max-1e-12 {
			t.Errorf("block %d: more inputs shrank max", b)
		}
		if many.Bounds[b].Min > one.Bounds[b].Min+1e-12 {
			t.Errorf("block %d: more inputs raised min", b)
		}
	}
}
