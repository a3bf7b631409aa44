package sdc

import (
	"math"
	"testing"

	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// scoreNet is a minimal one-FC network used to fabricate outputs directly.
func scoreNet(withSoftmax bool, classes int) *network.Network {
	fc := layers.NewFC("fc", classes, classes)
	for i := 0; i < classes; i++ {
		fc.Weights[i*classes+i] = 1 // identity
	}
	ls := []layers.Layer{fc}
	if withSoftmax {
		ls = append(ls, layers.NewSoftmax("prob"))
	}
	return &network.Network{
		Name:    "score",
		InShape: tensor.Shape{C: classes, H: 1, W: 1},
		Classes: classes,
		Layers:  ls,
	}
}

// execFor runs the identity network on the given scores.
func execFor(n *network.Network, scores []float64) *network.Execution {
	in := tensor.FromSlice(tensor.Shape{C: len(scores), H: 1, W: 1}, append([]float64(nil), scores...))
	return n.Forward(numeric.Double, in)
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{SDC1: "SDC-1", SDC5: "SDC-5", SDC10: "SDC-10%", SDC20: "SDC-20%"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestNoSDCOnIdenticalRuns(t *testing.T) {
	n := scoreNet(true, 6)
	g := execFor(n, []float64{5, 4, 3, 2, 1, 0})
	o := Classify(n, g, g)
	if o.Any() {
		t.Errorf("identical runs flagged: %+v", o)
	}
	for _, k := range Kinds {
		if !o.Defined[k] {
			t.Errorf("%v should be defined for a softmax network", k)
		}
	}
}

func TestSDC1TopChange(t *testing.T) {
	n := scoreNet(true, 6)
	g := execFor(n, []float64{5, 4, 3, 2, 1, 0})
	f := execFor(n, []float64{4, 5, 3, 2, 1, 0}) // top flips to index 1
	o := Classify(n, g, f)
	if !o.Hit[SDC1] {
		t.Error("SDC-1 not detected on top-1 change")
	}
	if o.Hit[SDC5] {
		t.Error("SDC-5 flagged although faulty top is within golden top-5")
	}
}

func TestSDC5OutsideTopFive(t *testing.T) {
	n := scoreNet(true, 8)
	g := execFor(n, []float64{8, 7, 6, 5, 4, 3, 2, 1})
	f := execFor(n, []float64{1, 2, 3, 4, 5, 6, 7, 100}) // top becomes index 7, golden rank 8
	o := Classify(n, g, f)
	if !o.Hit[SDC1] || !o.Hit[SDC5] {
		t.Errorf("expected SDC-1 and SDC-5, got %+v", o.Hit)
	}
}

func TestSDCConfidenceThresholds(t *testing.T) {
	n := scoreNet(true, 3)
	g := execFor(n, []float64{2, 1, 0})
	// Slightly reduce the winner's score: same ranking, smaller confidence.
	f := execFor(n, []float64{1.7, 1, 0})
	o := Classify(n, g, f)
	if o.Hit[SDC1] || o.Hit[SDC5] {
		t.Errorf("ranking SDCs flagged for unchanged ranking: %+v", o.Hit)
	}
	if !o.Hit[SDC10] {
		t.Error("SDC-10%% should fire for a ~15%% confidence drop")
	}
	if o.Hit[SDC20] {
		t.Error("SDC-20%% should not fire for a ~15%% confidence drop")
	}
}

func TestSDCConfidenceBothThresholds(t *testing.T) {
	n := scoreNet(true, 3)
	g := execFor(n, []float64{2, 1, 0})
	f := execFor(n, []float64{0.9, 1, 0}) // winner changes AND confidence collapses
	o := Classify(n, g, f)
	if !o.Hit[SDC10] || !o.Hit[SDC20] {
		t.Errorf("confidence SDCs not detected: %+v", o.Hit)
	}
}

func TestNoConfidenceSDCWithoutSoftmax(t *testing.T) {
	n := scoreNet(false, 6)
	g := execFor(n, []float64{5, 4, 3, 2, 1, 0})
	f := execFor(n, []float64{0, 1, 2, 3, 4, 5})
	o := Classify(n, g, f)
	if o.Defined[SDC10] || o.Defined[SDC20] {
		t.Error("confidence SDCs defined for a network without softmax (NiN case)")
	}
	if !o.Hit[SDC1] {
		t.Error("SDC-1 must still apply without softmax")
	}
}

func TestCountsAggregation(t *testing.T) {
	var c Counts
	o1 := Outcome{}
	o1.Defined[SDC1], o1.Defined[SDC5] = true, true
	o1.Hit[SDC1] = true
	o2 := Outcome{}
	o2.Defined[SDC1], o2.Defined[SDC5] = true, true
	c.Add(o1)
	c.Add(o2)
	if c.Trials != 2 {
		t.Errorf("Trials = %d", c.Trials)
	}
	if got := c.Probability(SDC1); got != 0.5 {
		t.Errorf("P(SDC1) = %v, want 0.5", got)
	}
	if got := c.Probability(SDC10); got != 0 {
		t.Errorf("P(SDC10) = %v, want 0 (never defined)", got)
	}
}

func TestCountsMerge(t *testing.T) {
	a := Counts{Trials: 2}
	a.Hits[SDC1], a.DefinedTrials[SDC1] = 1, 2
	b := Counts{Trials: 3}
	b.Hits[SDC1], b.DefinedTrials[SDC1] = 2, 3
	a.Merge(b)
	if a.Trials != 5 || a.Hits[SDC1] != 3 || a.DefinedTrials[SDC1] != 5 {
		t.Errorf("Merge = %+v", a)
	}
	if got := a.Probability(SDC1); got != 0.6 {
		t.Errorf("merged P = %v", got)
	}
}

func TestRelativeChange(t *testing.T) {
	cases := []struct {
		g, f, want float64
	}{
		{1, 1.05, 0.05},
		{1, 0.5, 0.5},
		{0.5, 0.5, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := relativeChange(c.g, c.f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("relativeChange(%v,%v) = %v, want %v", c.g, c.f, got, c.want)
		}
	}
	if got := relativeChange(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relativeChange(0,1) = %v, want +Inf", got)
	}
	if got := relativeChange(1, math.NaN()); !math.IsInf(got, 1) {
		t.Errorf("relativeChange(1,NaN) = %v, want +Inf", got)
	}
}

// TestCountsCheck: every tally Add builds passes; one with hits outside
// [0, DefinedTrials] or more defined than total trials does not.
func TestCountsCheck(t *testing.T) {
	var c Counts
	for i := 0; i < 5; i++ {
		c.Add(Outcome{Hit: [NumKinds]bool{i%2 == 0}, Defined: [NumKinds]bool{true, true}})
	}
	if err := c.Check(); err != nil {
		t.Fatalf("Add-built tally refused: %v", err)
	}
	for name, forge := range map[string]func(*Counts){
		"negative hits":            func(c *Counts) { c.Hits[SDC5] = -1 },
		"hits past defined":        func(c *Counts) { c.Hits[SDC1] = c.DefinedTrials[SDC1] + 1 },
		"defined past trials":      func(c *Counts) { c.DefinedTrials[SDC10] = c.Trials + 1 },
		"negative trials, no hits": func(c *Counts) { *c = Counts{Trials: -3} },
	} {
		f := c
		forge(&f)
		if f.Check() == nil {
			t.Errorf("%s: %+v passed Check", name, f)
		}
	}
}
