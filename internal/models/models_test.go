package models

import (
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
)

func TestBuildAllValidate(t *testing.T) {
	for _, name := range Names {
		n := Build(name)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTable2Topologies(t *testing.T) {
	// Table 2: ConvNet = 3 CONV + 2 FC; AlexNet/CaffeNet = 5 CONV (LRN) +
	// 3 FC; NiN = 12 CONV.
	counts := func(name string) (conv, fc, lrn, softmax int) {
		for _, l := range Build(name).Layers {
			switch l.Kind() {
			case layers.Conv:
				conv++
			case layers.FC:
				fc++
			case layers.LRN:
				lrn++
			case layers.Softmax:
				softmax++
			}
		}
		return
	}
	if c, f, _, s := counts("ConvNet"); c != 3 || f != 2 || s != 1 {
		t.Errorf("ConvNet: conv=%d fc=%d softmax=%d, want 3/2/1", c, f, s)
	}
	for _, name := range []string{"AlexNet", "CaffeNet"} {
		c, f, l, s := counts(name)
		if c != 5 || f != 3 || l != 2 || s != 1 {
			t.Errorf("%s: conv=%d fc=%d lrn=%d softmax=%d, want 5/3/2/1", name, c, f, l, s)
		}
	}
	if c, f, l, s := counts("NiN"); c != 12 || f != 0 || l != 0 || s != 0 {
		t.Errorf("NiN: conv=%d fc=%d lrn=%d softmax=%d, want 12/0/0/0", c, f, l, s)
	}
}

func TestClassCounts(t *testing.T) {
	want := map[string]int{"ConvNet": 10, "AlexNet": 1000, "CaffeNet": 1000, "NiN": 1000}
	for name, classes := range want {
		if got := Build(name).Classes; got != classes {
			t.Errorf("%s classes = %d, want %d", name, got, classes)
		}
	}
}

func TestNiNHasNoSoftmax(t *testing.T) {
	if Build("NiN").HasSoftmax() {
		t.Error("NiN must not have a softmax (§4.1: rankings without confidence)")
	}
	for _, name := range []string{"ConvNet", "AlexNet", "CaffeNet"} {
		if !Build(name).HasSoftmax() {
			t.Errorf("%s must end in softmax", name)
		}
	}
}

func TestCaffeNetDiffersOnlyInBlockOrder(t *testing.T) {
	a, c := Build("AlexNet"), Build("CaffeNet")
	if len(a.Layers) != len(c.Layers) {
		t.Fatalf("layer counts differ: %d vs %d", len(a.Layers), len(c.Layers))
	}
	// AlexNet block 1: conv,relu,LRN,pool. CaffeNet: conv,relu,pool,LRN.
	if a.Layers[2].Kind() != layers.LRN || a.Layers[3].Kind() != layers.Pool {
		t.Errorf("AlexNet block1 order: %v,%v", a.Layers[2].Kind(), a.Layers[3].Kind())
	}
	if c.Layers[2].Kind() != layers.Pool || c.Layers[3].Kind() != layers.LRN {
		t.Errorf("CaffeNet block1 order: %v,%v", c.Layers[2].Kind(), c.Layers[3].Kind())
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build("AlexNet"), Build("AlexNet")
	ca := a.Layers[0].(*layers.ConvLayer)
	cb := b.Layers[0].(*layers.ConvLayer)
	for i := range ca.Weights {
		if ca.Weights[i] != cb.Weights[i] {
			t.Fatal("Build is not deterministic")
		}
	}
}

func TestBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(unknown) did not panic")
		}
	}()
	Build("ResNet")
}

func TestGoldenInference(t *testing.T) {
	// Golden runs are finite, deterministic and produce a valid ranking.
	for _, name := range Names {
		n := Build(name)
		in := InputFor(name, 0)
		e1 := n.Forward(numeric.Double, in)
		e2 := n.Forward(numeric.Double, InputFor(name, 0))
		if e1.Top1() != e2.Top1() {
			t.Errorf("%s: nondeterministic top1", name)
		}
		if top := e1.Top1(); top < 0 || top >= n.Classes {
			t.Errorf("%s: top1 = %d out of range", name, top)
		}
	}
}

func TestActivationProfileMatchesTable4Shape(t *testing.T) {
	// The substitution contract from DESIGN.md: activation ranges must
	// reproduce Table 4's qualitative shape.
	nets := map[string][]float64{}
	for _, name := range Names {
		n := Build(name)
		exec := n.Forward(numeric.Double, InputFor(name, 0))
		var maxes []float64
		for _, r := range n.BlockRanges(exec) {
			m := r.Max
			if -r.Min > m {
				m = -r.Min
			}
			maxes = append(maxes, m)
		}
		nets[name] = maxes
	}

	// (1) AlexNet/CaffeNet: late layers need narrower ranges than layer 1.
	for _, name := range []string{"AlexNet", "CaffeNet"} {
		m := nets[name]
		last := m[len(m)-1]
		if last >= m[0]/2 {
			t.Errorf("%s: final range %v not well below layer-1 range %v", name, last, m[0])
		}
	}
	// (2) ConvNet ranges are small (normalized CIFAR inputs): within the
	// 16b_rb10 dynamic range so fixed point does not saturate golden runs.
	for _, m := range nets["ConvNet"] {
		if m >= 32 {
			t.Errorf("ConvNet range %v exceeds 16b_rb10 max", m)
		}
	}
	// (3) ImageNet-like networks exceed the small fixed-point range at
	// layer 1 (raw-pixel scale), like the paper's ±700 ranges.
	for _, name := range []string{"AlexNet", "CaffeNet", "NiN"} {
		if nets[name][0] <= 32 {
			t.Errorf("%s layer-1 range %v should exceed 16b_rb10 max", name, nets[name][0])
		}
	}
	// (4) No golden value overflows FLOAT16.
	for name, m := range nets {
		for i, v := range m {
			if v >= 65504 {
				t.Errorf("%s block %d range %v overflows FLOAT16", name, i+1, v)
			}
		}
	}
	// (5) NiN peaks mid-network and tapers at the end (Table 4 NiN shape).
	nin := nets["NiN"]
	peak := 0.0
	for _, v := range nin {
		if v > peak {
			peak = v
		}
	}
	if nin[len(nin)-1] >= peak/2 {
		t.Errorf("NiN final range %v should be well below peak %v", nin[len(nin)-1], peak)
	}
}

func TestDatasetAssignment(t *testing.T) {
	if Dataset("ConvNet").String() != "cifar-like" {
		t.Error("ConvNet should use the CIFAR-like dataset")
	}
	for _, name := range []string{"AlexNet", "CaffeNet", "NiN"} {
		if Dataset(name).String() != "imagenet-like" {
			t.Errorf("%s should use the ImageNet-like dataset", name)
		}
	}
}

func TestInputShapes(t *testing.T) {
	for _, name := range Names {
		n := Build(name)
		in := InputFor(name, 3)
		if in.Shape != n.InShape {
			t.Errorf("%s: input shape %v, want %v", name, in.Shape, n.InShape)
		}
	}
}
