package systolic

import (
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

func buildSmall() *network.Network {
	conv := layers.NewConv("conv1", 1, 4, 3, 1, 1)
	for i := range conv.Weights {
		conv.Weights[i] = 0.2 * float64(i%5-2)
	}
	fc := layers.NewFC("fc2", 4*4*4, 8)
	for i := range fc.Weights {
		fc.Weights[i] = 0.08 * float64(i%7-3)
	}
	n := &network.Network{
		Name:    "small",
		InShape: tensor.Shape{C: 1, H: 8, W: 8},
		Classes: 8,
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

func smallInputs(n int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		img := dataset.Image(dataset.CIFARLike, 8, i)
		one := tensor.New(tensor.Shape{C: 1, H: 8, W: 8})
		copy(one.Data, img.Data[:64])
		ins[i] = one
	}
	return ins
}

func TestCampaignDeterministic(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray}
	opt := Options{N: 120, Seed: 9, Workers: 3}
	r1 := c.Run(opt)
	r2 := c.Run(opt)
	if r1.Counts != r2.Counts {
		t.Errorf("systolic campaign not deterministic: %+v vs %+v", r1.Counts, r2.Counts)
	}
	if r1.Counts.Trials != 120 {
		t.Errorf("Trials = %d, want 120", r1.Counts.Trials)
	}
	perLatch := 0
	for latch := range r1.PerLatch {
		perLatch += r1.PerLatch[latch].Trials
	}
	if perLatch != r1.Counts.Trials {
		t.Errorf("PerLatch trials sum to %d, want %d", perLatch, r1.Counts.Trials)
	}
}

// TestEffectExpansionMatchesSim is the campaign half of the tentpole's
// equivalence proof, run under every dataflow: for every latch class —
// including the multi-MAC resident and pipeline faults and MBU widths —
// the injector's per-MAC effect expansion must reproduce the cycle-level
// simulator's faulted ofmap bit for bit.
func TestEffectExpansionMatchesSim(t *testing.T) {
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		for _, dt := range []numeric.Type{numeric.Fx16RB10, numeric.Fx32RB26, numeric.Float, numeric.Double} {
			net := buildSmall()
			net.EnableQuantCache()
			in := smallInputs(1)[0]
			g := net.Forward(dt, in)
			inj := newInjector(net, dt, tinyArray, flow, 1)
			sc := net.NewSlotScratch(dt)

			for pos, li := range inj.macLayers {
				geo := inj.geos[pos]
				sim := NewFlow(net.Layers[li], dt, tinyArray, flow)
				simIn := g.LayerInput(li)
				cases := []Site{
					{K: 1, Out: 1, P: geo.P / 2, Latch: LatchAct, Bit: 3, Width: 1},
					{K: geo.K - 1, Out: geo.Outs - 1, P: 0, Latch: LatchPsum, Bit: dt.Width() - 3, Width: 1},
					{K: 2, Out: 0, P: geo.P / 3, Latch: LatchWeight, Bit: 5, Width: 1},
					{K: geo.K / 2, Out: 0, P: geo.P - 1, Latch: LatchPipe, Bit: 4, Width: 1},
					{K: 0, Out: geo.Outs - 1, P: 0, Latch: LatchPipe, Bit: 4, Width: 1}, // WS/OS tile edge
					{K: 1, Out: 0, P: geo.P - 1, Latch: LatchPipe, Bit: 4, Width: 1},    // IS tile edge (P)
					{K: 0, Out: 0, P: 0, Latch: LatchAct, Bit: 6, Width: 1},             // IS: resident whole pass
					{K: 2, Out: geo.Outs - 1, P: 0, Latch: LatchAct, Bit: 5, Width: 1},  // IS: one remaining read
					{K: 1, Out: 2, P: geo.P / 2, Latch: LatchWeight, Bit: 2, Width: 3},  // MBU
					{K: 1, Out: 1, P: geo.P / 4, Latch: LatchAct, Bit: 1, Width: 2},     // MBU
					{K: 3, Out: 1, P: geo.P / 2, Latch: LatchPsum, Bit: 0, Width: 4},    // MBU
					{K: 0, Out: 1, P: 0, Latch: LatchPipe, Bit: 2, Width: 2},            // MBU on the moving operand
				}
				for _, s := range cases {
					faulty := inj.execute(sc, g, pos, s)
					f := geo.Encode(s)
					want := sim.Run(simIn, &f)
					// Masked executions alias golden tensors where the
					// perturbation died — in exactly those cases the sim output
					// equals golden too, so one comparison covers all paths.
					got := faulty.Acts[li]
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s/%s layer %d site %+v: act[%d] = %v (campaign) vs %v (sim)",
								flow, dt, li, s, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

func marshal(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardMergeBitIdentical is the distributed == solo property across
// the full matrix the issue pins: eval modes × all six formats × shard
// counts {1,2,7}, uniform and stratified. The shard-order merge of serially
// run shard partials must byte-compare equal to the solo Run.
func TestShardMergeBitIdentical(t *testing.T) {
	inputs := smallInputs(2)
	for _, dt := range numeric.Types {
		for _, eval := range []engine.EvalMode{engine.EvalPerBit, engine.EvalSiteScalar, engine.EvalSiteBitPlane} {
			for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
				for _, shards := range []int{1, 2, 7} {
					c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: inputs}, Array: tinyArray}
					opt := Options{N: 24, Seed: 11, Workers: shards, Sampling: sampling, PilotN: 8, Eval: eval}
					solo := marshal(t, c.Run(opt))
					merged := marshal(t, engine.MergeAll(engine.ShardReports(c.Surface(opt))))
					if string(solo) != string(merged) {
						t.Fatalf("%s/%s/%s S=%d: distributed != solo\nsolo:   %s\nmerged: %s",
							dt, eval, samplingName(sampling), shards, solo, merged)
					}
				}
			}
		}
	}
}

func samplingName(m engine.SamplingMode) string {
	if m == engine.SamplingStratified {
		return "stratified"
	}
	return "uniform"
}

// TestDataflowShardMergeBitIdentical extends the distributed == solo
// property to the output- and input-stationary dataflows, including an
// MBU campaign on each: shard-order merge must byte-compare equal to the
// solo run.
func TestDataflowShardMergeBitIdentical(t *testing.T) {
	inputs := smallInputs(2)
	for _, flow := range []Dataflow{OutputStationary, InputStationary} {
		for _, dt := range []numeric.Type{numeric.Fx16RB10, numeric.Float} {
			for _, eval := range []engine.EvalMode{engine.EvalPerBit, engine.EvalSiteScalar, engine.EvalSiteBitPlane} {
				for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
					for _, shards := range []int{1, 3} {
						c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: inputs}, Array: tinyArray, Flow: flow}
						opt := Options{N: 24, Seed: 11, Workers: shards, Sampling: sampling, PilotN: 8, Eval: eval}
						if eval == engine.EvalPerBit {
							opt.MBU = 3
						}
						solo := marshal(t, c.Run(opt))
						merged := marshal(t, engine.MergeAll(engine.ShardReports(c.Surface(opt))))
						if string(solo) != string(merged) {
							t.Fatalf("%s/%s/%s/%s S=%d: distributed != solo\nsolo:   %s\nmerged: %s",
								flow, dt, eval, samplingName(sampling), shards, solo, merged)
						}
					}
				}
			}
		}
	}
}

// TestDataflowSiteModesBitIdentical pins the bit-plane fast path to the
// scalar oracle under the new dataflows — in particular the
// output-stationary weight latch, whose plane replay runs through
// layers.TargetWeight.
func TestDataflowSiteModesBitIdentical(t *testing.T) {
	for _, flow := range []Dataflow{OutputStationary, InputStationary} {
		for _, dt := range numeric.Types {
			c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: smallInputs(2)}, Array: tinyArray, Flow: flow}
			base := Options{N: 3*dt.Width() + 5, Seed: 13, Workers: 2}
			scalar := base
			scalar.Eval = engine.EvalSiteScalar
			plane := base
			plane.Eval = engine.EvalSiteBitPlane
			rs := c.Run(scalar)
			rp := c.Run(plane)
			rs.PreMasked, rp.PreMasked = 0, 0
			if string(marshal(t, rs)) != string(marshal(t, rp)) {
				t.Errorf("%s/%s: site-scalar and site-bitplane reports differ\nscalar: %s\nplane:  %s",
					flow, dt, marshal(t, rs), marshal(t, rp))
			}
		}
	}
}

// TestDataflowsDiverge guards against the dataflow parameter being wired
// but inert: at equal seeds the three dataflows must not all produce the
// same per-latch tallies (their corruption fronts differ by
// construction).
func TestDataflowsDiverge(t *testing.T) {
	reports := make([]string, NumDataflows)
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray, Flow: flow}
		reports[flow] = string(marshal(t, c.Run(Options{N: 300, Seed: 5})))
	}
	if reports[WeightStationary] == reports[OutputStationary] &&
		reports[WeightStationary] == reports[InputStationary] {
		t.Error("all three dataflows produced identical reports at N=300; the dataflow axis looks inert")
	}
}

// TestSiteModesBitIdentical pins the bit-plane fast path to the scalar
// oracle: same draws, same tallies, byte-identical reports.
func TestSiteModesBitIdentical(t *testing.T) {
	for _, dt := range numeric.Types {
		c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: smallInputs(2)}, Array: tinyArray}
		base := Options{N: 3*dt.Width() + 5, Seed: 13, Workers: 2}
		scalar := base
		scalar.Eval = engine.EvalSiteScalar
		plane := base
		plane.Eval = engine.EvalSiteBitPlane
		rs := c.Run(scalar)
		rp := c.Run(plane)
		rs.PreMasked, rp.PreMasked = 0, 0 // diagnostic only: the pre-screen exists only in plane mode
		if string(marshal(t, rs)) != string(marshal(t, rp)) {
			t.Errorf("%s: site-scalar and site-bitplane reports differ\nscalar: %s\nplane:  %s",
				dt, marshal(t, rs), marshal(t, rp))
		}
	}
}

func TestStratifiedEstimateAndPrior(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray}
	var pilot *engine.StrataSummary
	opt := Options{
		N: 160, Seed: 7, Workers: 3, Sampling: engine.SamplingStratified, PilotN: 48,
		OnPilotStrata: func(s *engine.StrataSummary) { pilot = s.Clone() },
	}
	r := c.Run(opt)
	if r.Strata == nil {
		t.Fatal("stratified run produced no strata")
	}
	if pilot == nil {
		t.Fatal("OnPilotStrata not called")
	}
	if r.Counts.Trials != 160 {
		t.Errorf("Trials = %d, want 160", r.Counts.Trials)
	}
	p, ci := engine.SDCEstimate(r.Counts, r.Strata, sdc.SDC1)
	if math.IsNaN(p) || p < 0 || p > 1 || ci < 0 {
		t.Errorf("estimate = %v ± %v", p, ci)
	}

	// A prior-allocated campaign (pilot-free) must run on the recorded
	// strata and remain deterministic.
	prior := Options{
		N: 80, Seed: 7, Workers: 2, Sampling: engine.SamplingStratified,
		PilotN: -1, Prior: pilot,
	}
	r1 := c.Run(prior)
	r2 := c.Run(prior)
	if string(marshal(t, r1)) != string(marshal(t, r2)) {
		t.Error("prior-allocated campaign not deterministic")
	}
	if r1.Counts.Trials != 80 {
		t.Errorf("prior-allocated Trials = %d, want 80", r1.Counts.Trials)
	}
}

func TestMBUCampaign(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray}
	opt := Options{N: 100, Seed: 19, Workers: 2, MBU: 3}
	r := c.Run(opt)
	if r.Counts.Trials != 100 {
		t.Errorf("Trials = %d, want 100", r.Counts.Trials)
	}

	// Stratified MBU campaigns must leave the top MBU-1 base-bit strata
	// empty: those spans would cross the word end.
	sopt := opt
	sopt.Sampling = engine.SamplingStratified
	sopt.PilotN = 32
	sr := c.Run(sopt)
	if sr.Strata == nil {
		t.Fatal("no strata")
	}
	width := numeric.Fx16RB10.Width()
	blocks := len(sr.Strata.Counts) / width
	for blk := 0; blk < blocks; blk++ {
		for bit := width - opt.MBU + 1; bit < width; bit++ {
			if n := sr.Strata.Counts[blk*width+bit].Trials; n != 0 {
				t.Errorf("stratum (%d,%d) got %d trials; MBU span would cross the word end", blk, bit, n)
			}
		}
	}

	// Distributed MBU == solo as well.
	parts := engine.ShardReports(c.Surface(opt))
	if string(marshal(t, c.Run(opt))) != string(marshal(t, engine.MergeAll(parts))) {
		t.Error("MBU campaign distributed != solo")
	}
}

func TestMBURejectsSiteModes(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}, Array: tinyArray}
	defer func() {
		if recover() == nil {
			t.Error("MBU + site mode did not panic")
		}
	}()
	c.Run(Options{N: 8, Seed: 1, MBU: 2, Eval: engine.EvalSiteScalar})
}

func TestMBUWiderThanWordRejected(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}, Array: tinyArray}
	defer func() {
		if recover() == nil {
			t.Error("MBU wider than the word did not panic")
		}
	}()
	c.Run(Options{N: 8, Seed: 1, MBU: 17})
}

func TestDetectorTally(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}, Array: tinyArray}
	detect := func(e *network.Execution) bool { return e != nil && !e.Masked }
	r := c.Run(Options{N: 60, Seed: 23, Workers: 2, Detector: detect})
	if r.Detection.Total != 60 {
		t.Errorf("detector tallied %d of 60 injections", r.Detection.Total)
	}
	if p, rec := r.Detection.Precision(), r.Detection.Recall(); p < 0 || p > 1 || rec < 0 || rec > 1 {
		t.Errorf("precision/recall out of range: %v/%v", p, rec)
	}
}

func TestFaultsCauseSomeSDCs(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray}
	r := c.Run(Options{N: 200, Seed: 21})
	if r.Counts.Hits[sdc.SDC1] == 0 {
		t.Error("no SDC-1 from 200 systolic faults in a shallow fixed-point network")
	}
}

func TestLatchBits(t *testing.T) {
	if got := LatchBits(Params{}, numeric.Fx16RB10); got != 16*16*4*16 {
		t.Errorf("LatchBits(default, fx16) = %d", got)
	}
}

// TestCampaignGoldensComputedOncePerInput: a campaign resolves each input's
// golden once — one GoldenFn call, hence one forward pass behind a hook that
// does not cache, for all shards, both phases and repeated runs — and every
// slot executes on the campaign's one network and the array schedules
// derived from it once: nothing is built or derived per slot.
func TestCampaignGoldensComputedOncePerInput(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}, Array: tinyArray}
	var forwards atomic.Int32
	c.GoldenFn = func(_ int, compute func() *network.Execution) *network.Execution {
		forwards.Add(1)
		return compute()
	}
	opt := Options{N: 60, Seed: 5, Workers: 3}
	strat := opt
	strat.Sampling = engine.SamplingStratified
	ps, peo := c.Surface(strat)
	sched := c.sched
	us, ueo := c.Surface(opt)
	pilots, uniform := engine.NewPlan(peo, ps.Campaign().DType.Width()), engine.NewPlan(ueo, us.Campaign().DType.Width())
	for s := 0; s < 3; s++ {
		engine.RunSlot(ps, pilots, 2*s, nil) // shard s's pilot slot
		engine.RunSlot(us, uniform, s, nil)
	}
	c.Run(strat)
	if got := int(forwards.Load()); got != len(c.Inputs) {
		t.Errorf("%d golden forwards after 6 shard calls and a run over %d inputs", got, len(c.Inputs))
	}
	if sched == nil || c.sched != sched {
		t.Errorf("array schedules re-derived: %p after the first Surface call, %p after 6 shard calls", sched, c.sched)
	}
	for _, o := range []Options{opt, strat} {
		if inj := c.newShard(o); inj.schedule != sched || inj.net != c.Net {
			t.Errorf("a shard's injector runs on schedules %p over network %p, want the campaign's %p over %p",
				inj.schedule, inj.net, sched, c.Net)
		}
	}
}
