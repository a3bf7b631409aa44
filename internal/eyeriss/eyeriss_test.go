package eyeriss

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fit"
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

// newInjector is a one-off injector over net, outside any campaign.
func newInjector(net *network.Network, dt numeric.Type, residency []float64, mbu int) *injector {
	return &injector{geometry: newGeometry(net, dt, residency), mbu: mbu}
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

func TestTable7Parameters(t *testing.T) {
	if Params65nm.NumPEs != 168 || Params65nm.GlobalBufferKB != 98 {
		t.Errorf("65nm params drifted: %+v", Params65nm)
	}
	if Params16nm.NumPEs != 1344 || Params16nm.GlobalBufferKB != 784 {
		t.Errorf("16nm params drifted: %+v", Params16nm)
	}
	if Params16nm.FilterSRAMKB != 3.52 || Params16nm.ImgRegKB != 0.19 || Params16nm.PSumRegKB != 0.38 {
		t.Errorf("16nm per-PE sizes drifted: %+v", Params16nm)
	}
}

func TestScale(t *testing.T) {
	p := Scale(Params65nm, 8, "16nm-naive")
	if p.NumPEs != 1344 {
		t.Errorf("scaled PEs = %d, want 1344", p.NumPEs)
	}
	if math.Abs(p.GlobalBufferKB-784) > 1e-9 {
		t.Errorf("scaled GB = %v, want 784", p.GlobalBufferKB)
	}
}

func TestBufferStrings(t *testing.T) {
	want := map[Buffer]string{
		GlobalBuffer: "Global Buffer", FilterSRAM: "Filter SRAM",
		ImgReg: "Img REG", PSumReg: "PSum REG",
	}
	for b, s := range want {
		if b.String() != s {
			t.Errorf("%d.String() = %q", int(b), b.String())
		}
	}
}

func TestComponentBitsMatchPaperArithmetic(t *testing.T) {
	// The Table 8 FIT/SDC ratios imply these component sizes (in binary
	// megabits): GB 6.125, Filter SRAM ~4.61, Img REG ~0.249, PSum ~0.498.
	p := Params16nm
	mb := func(b Buffer) float64 { return float64(p.ComponentBits(b)) / fit.BitsPerMb }
	if got := mb(GlobalBuffer); math.Abs(got-6.125) > 1e-9 {
		t.Errorf("GB = %v Mb, want 6.125", got)
	}
	if got := mb(FilterSRAM); math.Abs(got-4.61) > 0.02 {
		t.Errorf("Filter SRAM = %v Mb, want ~4.61", got)
	}
	if got := mb(ImgReg); math.Abs(got-0.249) > 0.005 {
		t.Errorf("Img REG = %v Mb, want ~0.249", got)
	}
	if got := mb(PSumReg); math.Abs(got-0.498) > 0.005 {
		t.Errorf("PSum REG = %v Mb, want ~0.498", got)
	}
}

func TestTable8SanityAgainstPaper(t *testing.T) {
	// Plugging the paper's published SDC probabilities into our Eq. 1
	// implementation must reproduce the paper's published FIT rates.
	cases := []struct {
		b    Buffer
		sdc  float64
		want float64
	}{
		{GlobalBuffer, 0.697, 87.47},
		{FilterSRAM, 0.6637, 62.74},
		{ImgReg, 0.709, 3.57},
		{PSumReg, 0.2798, 2.82},
	}
	for _, c := range cases {
		got := FITComponent(Params16nm, c.b, c.sdc).FIT()
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("%s: FIT = %v, want ~%v (ConvNet row of Table 8)", c.b, got, c.want)
		}
	}
}

func TestDatapathFromParams(t *testing.T) {
	d := Params16nm.Datapath(numeric.Fx16RB10)
	if d.NumPEs != 1344 || d.TotalLatchBits() != 1344*4*16 {
		t.Errorf("datapath = %+v bits=%d", d, d.TotalLatchBits())
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	opt := Options{N: 120, Seed: 9, Workers: 3}
	r1 := c.Run(GlobalBuffer, opt)
	r2 := c.Run(GlobalBuffer, opt)
	if r1.Counts != r2.Counts {
		t.Errorf("buffer campaign not deterministic: %+v vs %+v", r1.Counts, r2.Counts)
	}
	if r1.Counts.Trials != 120 {
		t.Errorf("Trials = %d", r1.Counts.Trials)
	}
}

func TestAllBuffersRun(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}}
	for _, b := range Buffers {
		r := c.Run(b, Options{N: 40, Seed: 3})
		if r.Counts.Trials != 40 {
			t.Errorf("%s: trials = %d", b, r.Counts.Trials)
		}
	}
}

func TestFilterSRAMRestoresWeights(t *testing.T) {
	// After a campaign the worker's own network is mutated and restored;
	// the injector must leave weights untouched between injections. We
	// verify via determinism of repeated golden runs through the campaign
	// (a leaked mutation would corrupt later goldens) and by running two
	// identical campaigns.
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(3)}}
	r1 := c.Run(FilterSRAM, Options{N: 90, Seed: 17, Workers: 1})
	r2 := c.Run(FilterSRAM, Options{N: 90, Seed: 17, Workers: 1})
	if r1.Counts != r2.Counts {
		t.Error("FilterSRAM campaign leaked weight mutations")
	}
}

func TestGlobalBufferFaultSpreads(t *testing.T) {
	// A high-bit Global Buffer fault must corrupt multiple outputs of the
	// faulted layer (reuse), unlike a datapath fault which corrupts one.
	net := buildSmall()
	in := smallInputs(1)[0]
	g := net.Forward(numeric.Fx16RB10, in)
	inj := newInjector(net, numeric.Fx16RB10, nil, 1)

	corrupted := g.LayerInput(0).Clone()
	corrupted.Data[30] = numeric.Fx16RB10.FlipBit(corrupted.Data[30], 14)
	faulty := inj.net.ForwardFromInput(numeric.Fx16RB10, g, 0, corrupted, []int{30})
	diff := tensor.BitwiseMismatch(g.Acts[0], faulty.Acts[0])
	if diff < 2 {
		t.Errorf("GB fault affected %d conv outputs, want >= 2 (reuse)", diff)
	}
}

func TestImgRegFaultConfinedToRow(t *testing.T) {
	// An Img REG fault corrupts at most one output row of one channel of
	// the faulted conv layer.
	net := buildSmall()
	in := smallInputs(1)[0]
	dt := numeric.Fx16RB10
	g := net.Forward(dt, in)
	conv := net.Layers[0].(*layers.ConvLayer)
	inj := newInjector(net, dt, nil, 1)
	s := site{li: 0, oc: 2, oh: 3, ic: 0, ih: 3, iw: 3, bit: 14}
	act := inj.eval(net.NewSlotScratch(dt), ImgReg, g, s, 1).Acts[0]
	if act == g.Acts[0] {
		t.Fatal("a bit-14 Img REG upset left the struck row bit-identical to golden")
	}
	// The evaluator's row must be the direct recompute of that row.
	row := recomputeRow(dt, conv, in, act.Shape, s, dt.FlipBit(in.At(0, 3, 3), 14))
	for ow, v := range row {
		if math.Float64bits(v) != math.Float64bits(act.At(2, 3, ow)) {
			t.Fatalf("Img REG row element %d = %v, recomputeRow says %v", ow, act.At(2, 3, ow), v)
		}
	}

	os := act.Shape
	for c := 0; c < os.C; c++ {
		for h := 0; h < os.H; h++ {
			for w := 0; w < os.W; w++ {
				same := act.At(c, h, w) == g.Acts[0].At(c, h, w)
				if (c != 2 || h != 3) && !same {
					t.Fatalf("Img REG fault leaked to output (%d,%d,%d)", c, h, w)
				}
			}
		}
	}
}

func TestPSumRegSingleUpset(t *testing.T) {
	// PSum REG faults corrupt exactly one output element of the faulted
	// layer (single accumulation consumption).
	net := buildSmall()
	dt := numeric.Fx16RB10
	g := net.Forward(dt, smallInputs(1)[0])
	f := &layers.Fault{OutputIndex: 5, MACStep: 2, Target: layers.TargetAccum, Bit: 13}
	faulty := net.ForwardFrom(dt, g, 0, f)
	if diff := tensor.BitwiseMismatch(g.Acts[0], faulty.Acts[0]); diff > 1 {
		t.Errorf("PSum fault corrupted %d elements of the faulted layer, want <= 1", diff)
	}
}

func TestBufferFaultsCauseSomeSDCs(t *testing.T) {
	// With the small network and 16b_rb10, buffer faults must produce a
	// nonzero SDC-1 rate (high reuse, shallow net — the ConvNet row of
	// Table 8 is ~66-71%).
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	r := c.Run(FilterSRAM, Options{N: 150, Seed: 21})
	if r.Counts.Hits[sdc.SDC1] == 0 {
		t.Error("no SDC-1 from 150 Filter SRAM faults in a shallow network")
	}
}

func TestResidencyWeightsRouteLayers(t *testing.T) {
	// With all residency on the FC layer, Filter SRAM faults never hit the
	// conv layer: every injection corrupts exactly one FC output (weight
	// used once), so the faulted-layer spread stays minimal.
	c := &Campaign{
		Campaign:  engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)},
		Residency: []float64{0, 1}, // conv1, fc2
	}
	r := c.Run(PSumReg, Options{N: 50, Seed: 31})
	if r.Counts.Trials != 50 {
		t.Fatalf("trials = %d", r.Counts.Trials)
	}
	// And an invalid weight vector is rejected.
	bad := &Campaign{
		Campaign:  engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)},
		Residency: []float64{1}, // wrong length
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched residency length did not panic")
		}
	}()
	bad.Run(PSumReg, Options{N: 1, Seed: 1, Workers: 1})
}

// TestFilterSRAMQuantInvalidation verifies a Filter SRAM injection against
// the shared quantized-weight cache: the evaluator must see the flipped
// weight during the faulty pass — bit-identical to densely re-executing a
// cache-less network whose raw weight was flipped — and leave the cache
// (and the golden execution it was handed) exactly as it found them.
func TestFilterSRAMQuantInvalidation(t *testing.T) {
	dt := numeric.Fx16RB10
	in := smallInputs(1)[0]

	cached := buildSmall()
	cached.EnableQuantCache()
	plain := buildSmall()

	// Warm the cache with a golden pass.
	cg := cached.Forward(dt, in)
	pg := plain.Forward(dt, in)
	snapshot := make([]*tensor.Tensor, len(cg.Acts))
	for i, a := range cg.Acts {
		snapshot[i] = a.Clone()
	}

	for li, wi := range map[int]int{0: 3, 3: 77} { // conv1, fc2
		cf := newInjector(cached, dt, nil, 1).eval(cached.NewSlotScratch(dt), FilterSRAM, cg, site{li: li, word: wi, bit: 12}, 1)

		var wts []float64
		switch l := plain.Layers[li].(type) {
		case *layers.ConvLayer:
			wts = l.Weights
		case *layers.FCLayer:
			wts = l.Weights
		}
		orig := wts[wi]
		wts[wi] = dt.FlipBit(orig, 12)
		pf := plain.ForwardFromInputDense(dt, pg, li, pg.LayerInput(li))
		wts[wi] = orig

		if li == 0 && cf.Masked {
			t.Fatal("bit-12 conv1 weight flip reported masked")
		}
		for l := range cf.Acts {
			if !tensor.BitIdentical(cf.Acts[l], pf.Acts[l]) {
				t.Fatalf("layer %d weight %d: faulty pass diverged from the dense oracle at layer %d", li, wi, l)
			}
		}
	}

	// After the restore the cached network must again match the original
	// golden execution bit-for-bit, and the golden it was handed must be
	// untouched.
	cg2 := cached.Forward(dt, in)
	for li := range cg2.Acts {
		if !tensor.BitIdentical(cg2.Acts[li], snapshot[li]) {
			t.Fatalf("post-restore golden diverged at layer %d", li)
		}
		if !tensor.BitIdentical(cg.Acts[li], snapshot[li]) {
			t.Fatalf("Filter SRAM evaluation wrote through to golden layer %d", li)
		}
	}
}

// TestBufferCampaignsDeterministicWithCache pins the seeded determinism of
// every buffer class now that workers run through the quantized-parameter
// cache.
func TestBufferCampaignsDeterministicWithCache(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	for _, b := range Buffers {
		r1 := c.Run(b, Options{N: 40, Seed: 9, Workers: 2})
		r2 := c.Run(b, Options{N: 40, Seed: 9, Workers: 2})
		if r1.Counts != r2.Counts {
			t.Errorf("%v: counts diverged across identical runs: %+v vs %+v", b, r1.Counts, r2.Counts)
		}
	}
}

// TestRunShardMergeMatchesRun requires the shard-order merge of
// serially-run shard partials to equal Run with Workers equal to the shard
// count — the same determinism contract the datapath surface carries,
// extended to buffer campaigns so a distributed service can shard them
// identically.
func TestRunShardMergeMatchesRun(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	const shards = 4
	opt := Options{N: 103, Seed: 31, Workers: shards}
	for _, b := range Buffers {
		want := c.Run(b, opt)
		got := engine.MergeAll(engine.ShardReports(c.Surface(b, opt)))
		if got.Counts != want.Counts || got.Detection != want.Detection {
			t.Fatalf("%s: sharded merge diverged: %+v vs %+v", b, got, want)
		}
	}
}

// TestRunShardRejectsBadIndices pins the slot-range contract.
func TestRunShardRejectsBadIndices(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}}
	s, eo := c.Surface(GlobalBuffer, Options{N: 10, Seed: 1, Workers: 4})
	plan := engine.NewPlan(eo, s.Campaign().DType.Width())
	for _, bad := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RunSlot(%d) of a %d-slot plan did not panic", bad, plan.Slots())
				}
			}()
			engine.RunSlot(s, plan, bad, nil)
		}()
	}
}

// assertBufferReportsBitIdentical compares two buffer-campaign reports
// field by field, including the per-stratum tallies and bit-exact weights.
func assertBufferReportsBitIdentical(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Counts != want.Counts {
		t.Fatalf("%s: counts diverged: %+v vs %+v", label, got.Counts, want.Counts)
	}
	if got.Detection != want.Detection {
		t.Fatalf("%s: detection diverged", label)
	}
	if (got.Strata == nil) != (want.Strata == nil) {
		t.Fatalf("%s: strata presence diverged", label)
	}
	if want.Strata == nil {
		return
	}
	gs, ws := got.Strata, want.Strata
	if gs.Blocks != ws.Blocks || gs.Bits != ws.Bits {
		t.Fatalf("%s: strata dims diverged", label)
	}
	for h := range ws.Counts {
		if math.Float64bits(gs.Weight[h]) != math.Float64bits(ws.Weight[h]) {
			t.Fatalf("%s: stratum %d weight diverged", label, h)
		}
		if gs.Counts[h] != ws.Counts[h] {
			t.Fatalf("%s: stratum %d counts diverged: %+v vs %+v", label, h, gs.Counts[h], ws.Counts[h])
		}
	}
}

// TestStratifiedBufferSmoke runs the stratified design over every buffer
// class: the budget must be spent exactly, the per-stratum tallies must
// partition it, and the design weights must be a probability vector.
func TestStratifiedBufferSmoke(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	const n = 150
	for _, b := range Buffers {
		r := c.Run(b, Options{N: n, Seed: 13, Workers: 3, Sampling: engine.SamplingStratified})
		if r.Counts.Trials != n {
			t.Fatalf("%s: trials = %d, want %d", b, r.Counts.Trials, n)
		}
		if r.Strata == nil {
			t.Fatalf("%s: stratified run produced no strata", b)
		}
		total, mass := 0, 0.0
		for h := range r.Strata.Counts {
			total += r.Strata.Counts[h].Trials
			mass += r.Strata.Weight[h]
		}
		if total != n {
			t.Errorf("%s: strata trials sum to %d, want %d", b, total, n)
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Errorf("%s: stratum weights sum to %v, want 1", b, mass)
		}
		p, ci := engine.SDCEstimate(r.Counts, r.Strata, sdc.SDC1)
		if p < 0 || p > 1 || ci < 0 || ci > 1 || math.IsNaN(p) || math.IsNaN(ci) {
			t.Errorf("%s: SDC estimate %v ±%v malformed", b, p, ci)
		}
	}
}

// TestStratifiedBufferRunShardMergeMatchesRun is the eyeriss half of the
// stratified determinism contract: for S in {1, 2, 7} the shard-order
// merge of serially-run stratified shard partials must be bit-identical to
// the solo stratified Run, per-stratum tallies included.
func TestStratifiedBufferRunShardMergeMatchesRun(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	for _, b := range []Buffer{GlobalBuffer, ImgReg} {
		for _, shards := range []int{1, 2, 7} {
			opt := Options{N: 97, Seed: 19, Workers: shards, Sampling: engine.SamplingStratified}
			want := c.Run(b, opt)
			got := engine.MergeAll(engine.ShardReports(c.Surface(b, opt)))
			assertBufferReportsBitIdentical(t, fmt.Sprintf("%s/S=%d", b, shards), got, want)
		}
	}
}

// TestStratifiedBufferPhaseShardsMatchRun drives the pilot-slot/main-slot
// split the distributed ledger uses and checks the paired slot merge
// reproduces solo Run bit-for-bit.
func TestStratifiedBufferPhaseShardsMatchRun(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	const shards = 3
	opt := Options{N: 101, Seed: 23, Workers: shards, Sampling: engine.SamplingStratified}
	want := c.Run(FilterSRAM, opt)

	s, eo := c.Surface(FilterSRAM, opt)
	plan := engine.NewPlan(eo, s.Campaign().DType.Width())
	slots := make([]*Report, plan.Slots())
	for slot := range slots {
		if !plan.Gated(slot) {
			slots[slot] = engine.RunSlot(s, plan, slot, nil)
		}
	}
	table := plan.Table(engine.PilotReport(plan, slots, engine.MergeAll).Strata)
	got := &Report{}
	for sh := 0; sh < shards; sh++ {
		pair := &Report{}
		pair.Merge(slots[2*sh])
		pair.Merge(engine.RunSlot(s, plan, 2*sh+1, table))
		got.Merge(pair)
	}
	assertBufferReportsBitIdentical(t, "phase-sharded", got, want)
}

// TestStratifiedBufferEstimateAgreesWithUniform checks the reweighting on
// a buffer campaign: the stratified Horvitz-Thompson SDC-1 estimate of the
// Global Buffer campaign must agree with the uniform estimate within the
// pooled 99% interval.
func TestStratifiedBufferEstimateAgreesWithUniform(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	const n = 1200
	uni := c.Run(GlobalBuffer, Options{N: n, Seed: 29, Workers: 4})
	str := c.Run(GlobalBuffer, Options{N: n, Seed: 29, Workers: 4, Sampling: engine.SamplingStratified})
	pu, ciu := engine.SDCEstimate(uni.Counts, uni.Strata, sdc.SDC1)
	ps, cis := engine.SDCEstimate(str.Counts, str.Strata, sdc.SDC1)
	const z95, z99 = 1.959963984540054, 2.5758293035489004
	seu, ses := ciu/z95, cis/z95
	bound := z99*math.Sqrt(seu*seu+ses*ses) + 1e-9
	if diff := math.Abs(pu - ps); diff > bound {
		t.Errorf("stratified SDC-1 %.4f vs uniform %.4f differ by %.4f, pooled 99%% bound %.4f",
			ps, pu, diff, bound)
	}
}

// TestCampaignGoldensComputedOncePerInput: a campaign resolves each input's
// golden once — one GoldenFn call, hence one forward pass behind a hook that
// does not cache, for all shards, both phases and repeated runs — and every
// slot executes on the campaign's one network and the one geometry derived
// from it: nothing is built or derived per slot.
func TestCampaignGoldensComputedOncePerInput(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	var forwards atomic.Int32
	c.GoldenFn = func(_ int, compute func() *network.Execution) *network.Execution {
		forwards.Add(1)
		return compute()
	}
	opt := Options{N: 60, Seed: 5, Workers: 3}
	strat := opt
	strat.Sampling = engine.SamplingStratified
	ps, peo := c.Surface(GlobalBuffer, strat)
	geo := c.geo
	us, ueo := c.Surface(FilterSRAM, opt)
	pilots, uniform := engine.NewPlan(peo, ps.Campaign().DType.Width()), engine.NewPlan(ueo, us.Campaign().DType.Width())
	for s := 0; s < 3; s++ {
		engine.RunSlot(ps, pilots, 2*s, nil) // shard s's pilot slot
		engine.RunSlot(us, uniform, s, nil)
	}
	c.Run(GlobalBuffer, strat)
	if got := int(forwards.Load()); got != len(c.Inputs) {
		t.Errorf("%d golden forwards after 6 shard calls and a run over %d inputs", got, len(c.Inputs))
	}
	if geo == nil || c.geo != geo {
		t.Errorf("geometry re-derived: %p after the first Surface call, %p after 6 shard calls", geo, c.geo)
	}
	for _, o := range []Options{opt, strat} {
		if inj := c.newShard(o); inj.geometry != geo || inj.net != c.Net {
			t.Errorf("a shard's injector runs on geometry %p over network %p, want the campaign's %p over %p",
				inj.geometry, inj.net, geo, c.Net)
		}
	}
}

// TestConcurrentSlotsShareReadOnlyNetwork: a Filter SRAM campaign — the
// class that used to patch a cached weight in place — runs its 8 slots
// concurrently on the one shared network (a write to it would be a data
// race under -race), reports byte for byte what the same plan's slots run
// one at a time fold to, and leaves the network computing exactly what it
// computed before.
func TestConcurrentSlotsShareReadOnlyNetwork(t *testing.T) {
	const dt = numeric.Fx16RB10
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: dt, Inputs: smallInputs(2)}}
	before := c.Net.Forward(dt, c.Inputs[0])

	opt := Options{N: 240, Seed: 9, Workers: 8}
	concurrent := c.Run(FilterSRAM, opt)

	s, eo := c.Surface(FilterSRAM, opt)
	plan := engine.NewPlan(eo, s.Campaign().DType.Width())
	if plan.Slots() != 8 {
		t.Fatalf("plan has %d slots, want 8", plan.Slots())
	}
	parts := make([]*Report, plan.Slots())
	for slot := range parts {
		parts[slot] = engine.RunSlot(s, plan, slot, nil)
	}
	serial := engine.Fold(plan, parts, engine.MergeAll)

	cj, err := json.Marshal(concurrent)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj, sj) {
		t.Errorf("concurrent slots reported\n%s\nslots run one at a time\n%s", cj, sj)
	}
	if concurrent.Counts.Hits[sdc.SDC1] == 0 {
		t.Error("240 Filter SRAM faults caused no SDC-1: the campaign exercised nothing")
	}
	after := c.Net.Forward(dt, c.Inputs[0])
	for l := range before.Acts {
		if !tensor.BitIdentical(before.Acts[l], after.Acts[l]) {
			t.Fatalf("layer %d of the shared network's forward pass changed across the campaign", l)
		}
	}
}
