package network

import (
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// tinyNet builds a small conv -> relu -> pool -> fc -> softmax network with
// fixed weights for deterministic assertions.
func tinyNet() *Network {
	conv := layers.NewConv("conv1", 1, 2, 3, 1, 1)
	for i := range conv.Weights {
		conv.Weights[i] = 0.1 * float64(i%5)
	}
	fc := layers.NewFC("fc2", 2*2*2, 4)
	for i := range fc.Weights {
		fc.Weights[i] = 0.05 * float64(i%7-3)
	}
	return &Network{
		Name:    "tiny",
		InShape: tensor.Shape{C: 1, H: 4, W: 4},
		Classes: 4,
		Layers: []layers.Layer{
			conv,
			layers.NewReLU("relu1"),
			layers.NewPool("pool1", 2, 2),
			fc,
			layers.NewSoftmax("prob"),
		},
	}
}

func tinyInput() *tensor.Tensor {
	in := tensor.New(tensor.Shape{C: 1, H: 4, W: 4})
	for i := range in.Data {
		in.Data[i] = float64(i)*0.3 - 2
	}
	return in
}

func TestValidate(t *testing.T) {
	if err := tinyNet().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesShapeError(t *testing.T) {
	n := tinyNet()
	n.InShape = tensor.Shape{C: 2, H: 4, W: 4} // conv expects 1 channel
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted mismatched input shape")
	}
}

func TestValidateCatchesClassCount(t *testing.T) {
	n := tinyNet()
	n.Classes = 7
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted wrong class count")
	}
}

func TestHasSoftmax(t *testing.T) {
	n := tinyNet()
	if !n.HasSoftmax() {
		t.Error("tinyNet should report softmax")
	}
	n.Layers = n.Layers[:len(n.Layers)-1]
	if n.HasSoftmax() {
		t.Error("truncated net should not report softmax")
	}
}

func TestMACLayerIndices(t *testing.T) {
	n := tinyNet()
	got := n.MACLayerIndices()
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("MACLayerIndices = %v, want [0 3]", got)
	}
	if n.NumBlocks() != 2 {
		t.Errorf("NumBlocks = %d, want 2", n.NumBlocks())
	}
}

func TestForwardCapturesAllActs(t *testing.T) {
	n := tinyNet()
	exec := n.Forward(numeric.Double, tinyInput())
	if len(exec.Acts) != len(n.Layers) {
		t.Fatalf("captured %d acts, want %d", len(exec.Acts), len(n.Layers))
	}
	for i, a := range exec.Acts {
		if a == nil {
			t.Fatalf("act %d is nil", i)
		}
	}
	if got := exec.Output().Shape.Elems(); got != 4 {
		t.Errorf("output elems = %d, want 4", got)
	}
}

func TestForwardRejectsWrongShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Forward accepted wrong input shape")
		}
	}()
	tinyNet().Forward(numeric.Double, tensor.New(tensor.Shape{C: 1, H: 3, W: 3}))
}

func TestForwardFromMatchesFullRun(t *testing.T) {
	// A faulty resume must be bit-identical to a full forward pass where
	// the same layer receives the same fault.
	n := tinyNet()
	in := tinyInput()
	for _, dt := range []numeric.Type{numeric.Double, numeric.Float16, numeric.Fx16RB10} {
		golden := n.Forward(dt, in)

		fault := &layers.Fault{OutputIndex: 3, MACStep: 1, Target: layers.TargetAccum, Bit: dt.Width() - 2}
		resumed := n.ForwardFrom(dt, golden, 0, fault)

		// Full run with the fault routed manually to layer 0.
		fault2 := *fault
		fault2.Applied = false
		ctx := &layers.Context{DType: dt, Fault: &fault2}
		cur := n.Layers[0].Forward(ctx, in)
		clean := &layers.Context{DType: dt}
		for _, l := range n.Layers[1:] {
			cur = l.Forward(clean, cur)
		}
		for i := range cur.Data {
			if cur.Data[i] != resumed.Output().Data[i] {
				t.Fatalf("%s: resume mismatch at %d: %v vs %v", dt, i, resumed.Output().Data[i], cur.Data[i])
			}
		}
		if !fault.Applied {
			t.Fatalf("%s: fault not applied", dt)
		}
	}
}

func TestForwardFromSharesPrefix(t *testing.T) {
	n := tinyNet()
	golden := n.Forward(numeric.Double, tinyInput())
	fault := &layers.Fault{OutputIndex: 0, MACStep: 0, Target: layers.TargetAccum, Bit: 62}
	exec := n.ForwardFrom(numeric.Double, golden, 3, fault)
	for i := 0; i < 3; i++ {
		if exec.Acts[i] != golden.Acts[i] {
			t.Errorf("act %d not shared with golden", i)
		}
	}
	if exec.Acts[3] == golden.Acts[3] {
		t.Error("faulted layer act shared with golden")
	}
}

func TestForwardFromNoFaultEqualsGolden(t *testing.T) {
	n := tinyNet()
	golden := n.Forward(numeric.Float16, tinyInput())
	exec := n.ForwardFrom(numeric.Float16, golden, 2, nil)
	for i := range golden.Output().Data {
		if exec.Output().Data[i] != golden.Output().Data[i] {
			t.Fatal("nil-fault resume diverged from golden")
		}
	}
}

func TestTopK(t *testing.T) {
	n := tinyNet()
	exec := n.Forward(numeric.Double, tinyInput())
	out := exec.Output()
	top := out.ArgTopK(4)
	if len(top) != 4 {
		t.Fatalf("ArgTopK(4) len = %d", len(top))
	}
	if top[0] != exec.Top1() {
		t.Error("ArgTopK[0] != Top1")
	}
	for i := 1; i < len(top); i++ {
		if out.Data[top[i-1]] < out.Data[top[i]] {
			t.Error("ArgTopK not descending")
		}
	}
}

func TestBlockActsAndRanges(t *testing.T) {
	n := tinyNet()
	exec := n.Forward(numeric.Double, tinyInput())
	acts := n.BlockActs(exec)
	if len(acts) != 2 {
		t.Fatalf("BlockActs len = %d, want 2", len(acts))
	}
	// Block 0 ends after pool1 (layer 2); block 1 ends at fc2 (layer 3,
	// softmax excluded).
	if acts[0] != exec.Acts[2] {
		t.Error("block 0 should end at pool1")
	}
	if acts[1] != exec.Acts[3] {
		t.Error("block 1 should end at fc2, not softmax")
	}
	ranges := n.BlockRanges(exec)
	for i, r := range ranges {
		if r.Min > r.Max {
			t.Errorf("range %d inverted: %+v", i, r)
		}
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Min: -1, Max: 2}
	for v, want := range map[float64]bool{-1: true, 0: true, 2: true, -1.01: false, 2.01: false} {
		if got := r.Contains(v); got != want {
			t.Errorf("Contains(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestLayerDistances(t *testing.T) {
	n := tinyNet()
	in := tinyInput()
	a := n.Forward(numeric.Double, in)
	ds := n.LayerDistances(a, a)
	for i, d := range ds {
		if d != 0 {
			t.Errorf("self distance at block %d = %v", i, d)
		}
	}
	fault := &layers.Fault{OutputIndex: 0, MACStep: 0, Target: layers.TargetAccum, Bit: 62}
	b := n.ForwardFrom(numeric.Double, a, 0, fault)
	ds = n.LayerDistances(a, b)
	if ds[0] == 0 {
		t.Error("faulted block distance should be nonzero")
	}
}

func TestForwardStoredQuantizesBoundaries(t *testing.T) {
	n := tinyNet()
	in := tinyInput()
	exec := n.ForwardStored(numeric.Double, numeric.Float16, in)
	// Every captured activation must be representable in the storage
	// format (except the final softmax, which runs on the host).
	for i, act := range exec.Acts {
		if n.Layers[i].Kind() == layers.Softmax {
			continue
		}
		for j, v := range act.Data {
			if q := numeric.Float16.Quantize(v); q != v {
				t.Fatalf("act[%d][%d] = %v not FLOAT16-representable", i, j, v)
			}
		}
	}
	// With an identical storage format the run matches plain Forward.
	plain := n.Forward(numeric.Float16, in)
	stored := n.ForwardStored(numeric.Float16, numeric.Float16, in)
	for i := range plain.Output().Data {
		if plain.Output().Data[i] != stored.Output().Data[i] {
			t.Fatal("identity storage diverges from plain Forward")
		}
	}
}

func TestForwardStoredFromInputMatchesFull(t *testing.T) {
	n := tinyNet()
	in := tinyInput()
	golden := n.ForwardStored(numeric.Float, numeric.Float16, in)
	// Resuming at layer 0 with the unmodified input reproduces golden.
	resumed := n.ForwardStoredFromInput(numeric.Float, numeric.Float16, golden, 0, in)
	for i := range golden.Output().Data {
		if resumed.Output().Data[i] != golden.Output().Data[i] {
			t.Fatal("stored resume diverged from golden")
		}
	}
	// A corrupted stored word changes the output path.
	corrupted := in.Clone()
	corrupted.Data[3] = numeric.Float16.FlipBit(numeric.Float16.Quantize(corrupted.Data[3]), 14)
	faulty := n.ForwardStoredFromInput(numeric.Float, numeric.Float16, golden, 0, corrupted)
	diff := false
	for i := range golden.Acts[0].Data {
		if faulty.Acts[0].Data[i] != golden.Acts[0].Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("corrupted stored input had no effect")
	}
}
