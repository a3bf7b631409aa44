package faultinj

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// TestRandomSiteMBUSpans pins the MBU site-draw geometry: every drawn
// site carries the span width and a base bit that keeps the whole span
// inside the word.
func TestRandomSiteMBUSpans(t *testing.T) {
	dt := numeric.Fx16RB10
	p := accel.NewProfile(smallNet(), dt)
	rng := rand.New(rand.NewSource(3))
	const mbu = 3
	seenHigh := false
	for i := 0; i < 500; i++ {
		s := p.Draw(rng, -1, -1, mbu)
		if s.Fault.Width != mbu {
			t.Fatalf("site %v: Width = %d, want %d", s, s.Fault.Width, mbu)
		}
		if s.Fault.Bit < 0 || s.Fault.Bit+mbu > dt.Width() {
			t.Fatalf("site %v: span [%d, %d) leaves the %d-bit word", s, s.Fault.Bit, s.Fault.Bit+mbu, dt.Width())
		}
		if s.Fault.Bit == dt.Width()-mbu {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Errorf("500 draws never hit the top base bit %d", dt.Width()-mbu)
	}
	// mbu 1 must be exactly RandomSite (same PRNG stream, same sites).
	r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if a, b := p.Draw(r1, -1, -1, 1), p.RandomSite(r2); a != b {
			t.Fatalf("draw %d: Draw(mbu 1) = %v, RandomSite = %v", i, a, b)
		}
	}
}

// TestMBUCampaign runs a datapath multi-bit-upset campaign: base bits
// whose span would cross the word end are never drawn, stratified runs
// leave those strata empty, and the distributed shard-order merge stays
// bit-identical to the solo run.
func TestMBUCampaign(t *testing.T) {
	dt := numeric.Fx16RB10
	opt := Options{Options: engine.Options{N: 120, Seed: 19, Workers: 2, MBU: 3}}
	r := New(smallNet(), dt, smallInputs(2)).Run(opt)
	if r.Counts.Trials != 120 {
		t.Errorf("Trials = %d, want 120", r.Counts.Trials)
	}
	for bit := dt.Width() - opt.MBU + 1; bit < dt.Width(); bit++ {
		if n := r.PerBit[bit].Trials; n != 0 {
			t.Errorf("base bit %d got %d trials; MBU span would cross the word end", bit, n)
		}
	}

	// Stratified MBU campaigns must leave the top MBU-1 base-bit strata
	// empty: their population weight is zero.
	sopt := opt
	sopt.Sampling = engine.SamplingStratified
	sopt.PilotN = 32
	sr := New(smallNet(), dt, smallInputs(2)).Run(sopt)
	if sr.Strata == nil {
		t.Fatal("no strata")
	}
	width := dt.Width()
	blocks := len(sr.Strata.Counts) / width
	for blk := 0; blk < blocks; blk++ {
		for bit := width - opt.MBU + 1; bit < width; bit++ {
			if n := sr.Strata.Counts[blk*width+bit].Trials; n != 0 {
				t.Errorf("stratum (%d,%d) got %d trials; MBU span would cross the word end", blk, bit, n)
			}
		}
	}

	// Distributed MBU == solo, for both sampling designs.
	for _, o := range []Options{opt, sopt} {
		sharded := New(smallNet(), dt, smallInputs(2))
		parts := engine.ShardReports(sharded.Surface(o))
		assertReportsBitIdentical(t, "mbu distributed", engine.MergeAll(parts), New(smallNet(), dt, smallInputs(2)).Run(o))
	}
}

func TestMBURejectsSiteModes(t *testing.T) {
	c := New(smallNet(), numeric.Fx16RB10, smallInputs(1))
	defer func() {
		if recover() == nil {
			t.Error("MBU + site mode did not panic")
		}
	}()
	c.Run(Options{Options: engine.Options{N: 8, Seed: 1, MBU: 2, Eval: engine.EvalSiteScalar}})
}

func TestMBUWiderThanWordRejected(t *testing.T) {
	c := New(smallNet(), numeric.Fx16RB10, smallInputs(1))
	defer func() {
		if recover() == nil {
			t.Error("MBU wider than the word did not panic")
		}
	}()
	c.Run(Options{Options: engine.Options{N: 8, Seed: 1, MBU: 17}})
}

func TestMBURejectsCustomSelector(t *testing.T) {
	c := New(smallNet(), numeric.Fx16RB10, smallInputs(1))
	defer func() {
		if recover() == nil {
			t.Error("MBU + custom Selector did not panic")
		}
	}()
	c.Run(Options{Options: engine.Options{N: 8, Seed: 1, MBU: 2}, Selector: BitSelector(0)})
}

// FuzzMBUMaskedSoundness re-simulates multi-bit injections through the
// dense per-layer oracle: whenever the incremental engine claims a
// multi-bit flip masked (the recomputed chain output matched golden, so
// every downstream tensor aliases golden instead of being re-executed),
// the dense re-execution must agree bit for bit — and the masked run must
// classify exactly as golden.
func FuzzMBUMaskedSoundness(f *testing.F) {
	dt := numeric.Fx16RB10
	net := smallNet()
	net.EnableQuantCache()
	in := smallInputs(1)[0]
	g := net.Forward(dt, in)
	goldenOut := sdc.Classify(net, g, g)
	macLayers := []int{0, 3} // conv1, fc2

	f.Add(0, 0, 0, 0, 0, 2)
	f.Add(1, 5, 3, 2, 7, 3)
	f.Add(0, 100, 8, 3, 13, 3)
	f.Fuzz(func(t *testing.T, layerSel, outIdx, macStep, targetInt, bit, width int) {
		li := macLayers[((layerSel%2)+2)%2]
		outs := g.Acts[li].Shape.Elems()
		var chain int
		switch l := net.Layers[li].(type) {
		case *layers.ConvLayer:
			chain = l.MACChainLen()
		case *layers.FCLayer:
			chain = l.MACChainLen()
		}
		nt := int(layers.NumTargets)
		width = ((width%dt.Width())+dt.Width())%dt.Width() + 1
		span := dt.Width() - width + 1
		fault := layers.Fault{
			OutputIndex: ((outIdx % outs) + outs) % outs,
			MACStep:     ((macStep % chain) + chain) % chain,
			Target:      layers.Target(((targetInt % nt) + nt) % nt),
			Bit:         ((bit % span) + span) % span,
			Width:       width,
		}

		inc := fault
		faulty := net.ForwardFrom(dt, g, li, &inc)
		den := fault
		dense := net.ForwardFromDense(dt, g, li, &den)
		if inc.Applied != den.Applied {
			t.Fatalf("fault %+v: incremental applied=%v, dense applied=%v", fault, inc.Applied, den.Applied)
		}
		final := len(faulty.Acts) - 1
		for i := range faulty.Acts[final].Data {
			if math.Float64bits(faulty.Acts[final].Data[i]) != math.Float64bits(dense.Acts[final].Data[i]) {
				t.Fatalf("fault %+v: incremental and dense outputs diverge at %d", fault, i)
			}
		}
		if !faulty.Masked {
			return
		}
		// Masked claim: the whole run must be bit-identical to golden.
		for i := range faulty.Acts[final].Data {
			if math.Float64bits(faulty.Acts[final].Data[i]) != math.Float64bits(g.Acts[final].Data[i]) {
				t.Fatalf("masked multi-bit fault %+v reached the output at %d", fault, i)
			}
		}
		if out := sdc.Classify(net, g, faulty); out != goldenOut {
			t.Fatalf("masked multi-bit fault %+v classified %+v, want golden %+v", fault, out, goldenOut)
		}
	})
}
