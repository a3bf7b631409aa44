package faultinj

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// smallNet is a compact conv+fc softmax network for fast campaigns.
func smallNet() *network.Network {
	conv := layers.NewConv("conv1", 1, 3, 3, 1, 1)
	for i := range conv.Weights {
		conv.Weights[i] = 0.15 * float64(i%7-3)
	}
	fc := layers.NewFC("fc2", 3*3*3, 6)
	for i := range fc.Weights {
		fc.Weights[i] = 0.1 * float64(i%5-2)
	}
	n := &network.Network{
		Name:    "small",
		InShape: tensor.Shape{C: 1, H: 6, W: 6},
		Classes: 6,
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
		img := dataset.Image(dataset.CIFARLike, 6, i)
		// take one channel
		one := tensor.New(tensor.Shape{C: 1, H: 6, W: 6})
		copy(one.Data, img.Data[:36])
		ins[i] = one
	}
	return ins
}

func TestCampaignDeterministic(t *testing.T) {
	c1 := New(smallNet(), numeric.Float16, smallInputs(2))
	c2 := New(smallNet(), numeric.Float16, smallInputs(2))
	opt := Options{Options: engine.Options{N: 200, Seed: 42, Workers: 4}}
	r1, r2 := c1.Run(opt), c2.Run(opt)
	if r1.Counts != r2.Counts {
		t.Errorf("campaigns with the same seed diverged: %+v vs %+v", r1.Counts, r2.Counts)
	}
}

func TestCampaignCountsConsistency(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(3))
	r := c.Run(Options{Options: engine.Options{N: 300, Seed: 7}})
	if r.Counts.Trials != 300 {
		t.Fatalf("Trials = %d, want 300", r.Counts.Trials)
	}
	// Per-bit and per-block tallies partition the total.
	bitTotal, blockTotal := 0, 0
	for _, b := range r.PerBit {
		bitTotal += b.Trials
	}
	for _, b := range r.PerBlock {
		blockTotal += b.Trials
	}
	if bitTotal != 300 || blockTotal != 300 {
		t.Errorf("partitions: bits=%d blocks=%d, want 300", bitTotal, blockTotal)
	}
	targetTotal := 0
	for _, b := range r.PerTarget {
		targetTotal += b.Trials
	}
	if targetTotal != 300 {
		t.Errorf("target partition = %d, want 300", targetTotal)
	}
	// SDC-5 can never exceed SDC-1 (a top-1 outside golden top-5 implies a
	// top-1 change).
	if r.Counts.Hits[sdc.SDC5] > r.Counts.Hits[sdc.SDC1] {
		t.Errorf("SDC-5 hits %d exceed SDC-1 hits %d", r.Counts.Hits[sdc.SDC5], r.Counts.Hits[sdc.SDC1])
	}
}

func TestBitSelectorRoutesAllInjections(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	r := c.Run(Options{Options: engine.Options{N: 100, Seed: 1}, Selector: BitSelector(14)})
	if r.PerBit[14].Trials != 100 {
		t.Errorf("bit-14 trials = %d, want 100", r.PerBit[14].Trials)
	}
}

func TestBlockSelectorRoutesAllInjections(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	r := c.Run(Options{Options: engine.Options{N: 100, Seed: 1}, Selector: BlockSelector(1)})
	if r.PerBlock[1].Trials != 100 {
		t.Errorf("block-1 trials = %d, want 100", r.PerBlock[1].Trials)
	}
	if r.PerBlock[0].Trials != 0 {
		t.Errorf("block-0 trials = %d, want 0", r.PerBlock[0].Trials)
	}
}

func TestHighBitsMoreVulnerable(t *testing.T) {
	// The paper's central per-bit result: flipping the top exponent bit
	// causes far more SDCs than flipping a low mantissa bit.
	c := New(smallNet(), numeric.Float16, smallInputs(2))
	high := c.Run(Options{Options: engine.Options{N: 400, Seed: 3}, Selector: BitSelector(14)})
	low := c.Run(Options{Options: engine.Options{N: 400, Seed: 3}, Selector: BitSelector(0)})
	ph, pl := high.Counts.Probability(sdc.SDC1), low.Counts.Probability(sdc.SDC1)
	if ph <= pl {
		t.Errorf("high-bit SDC %.3f not above low-bit SDC %.3f", ph, pl)
	}
}

func TestTrackValues(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	r := c.Run(Options{Options: engine.Options{N: 100, Seed: 5}, TrackValues: 50})
	if len(r.Values) == 0 || len(r.Values) > 100 {
		t.Fatalf("tracked %d values", len(r.Values))
	}
	for _, v := range r.Values {
		if math.IsNaN(v.Golden) {
			t.Error("golden value is NaN")
		}
	}
}

func TestTrackSpread(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	r := c.Run(Options{Options: engine.Options{N: 200, Seed: 6}, TrackSpread: true})
	totalN := 0
	for b := range r.SpreadN {
		totalN += r.SpreadN[b]
		rate := r.SpreadRate(b)
		if rate < 0 || rate > 1 {
			t.Errorf("spread rate %v out of [0,1]", rate)
		}
	}
	if totalN != 200 {
		t.Errorf("spread samples = %d, want 200", totalN)
	}
}

func TestDetectorTally(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	// A detector that flags everything: recall 1, precision = 1 - benign
	// fraction.
	r := c.Run(Options{Options: engine.Options{N: 200, Seed: 8, Detector: func(*network.Execution) bool { return true }}})
	if r.Detection.Total != 200 {
		t.Fatalf("detector total = %d", r.Detection.Total)
	}
	if got := r.Detection.Recall(); got != 1 {
		t.Errorf("flag-all recall = %v, want 1", got)
	}
	wantPrec := 1 - float64(200-r.Detection.TotalSDC)/200
	if got := r.Detection.Precision(); math.Abs(got-wantPrec) > 1e-12 {
		t.Errorf("flag-all precision = %v, want %v", got, wantPrec)
	}
	// A detector that flags nothing: precision 1, recall 0 (if SDCs occurred).
	r2 := c.Run(Options{Options: engine.Options{N: 200, Seed: 8, Detector: func(*network.Execution) bool { return false }}})
	if got := r2.Detection.Precision(); got != 1 {
		t.Errorf("flag-none precision = %v, want 1", got)
	}
	if r2.Detection.TotalSDC > 0 && r2.Detection.Recall() != 0 {
		t.Errorf("flag-none recall = %v, want 0", r2.Detection.Recall())
	}
}

func TestDetectionMergeAndEdgeCases(t *testing.T) {
	var d Detection
	if d.Precision() != 1 || d.Recall() != 1 {
		t.Error("empty detection should be perfect by convention")
	}
	d.Merge(Detection{Total: 10, DetectedSDC: 3, DetectedBenign: 1, TotalSDC: 4})
	if d.Precision() != 0.9 || d.Recall() != 0.75 {
		t.Errorf("precision=%v recall=%v", d.Precision(), d.Recall())
	}
}

func TestCampaignOnRealModel(t *testing.T) {
	if testing.Short() {
		t.Skip("real-model campaign in -short mode")
	}
	net := models.Build("ConvNet")
	c := New(net, numeric.Fx32RB10, []*tensor.Tensor{models.InputFor("ConvNet", 0)})
	r := c.Run(Options{Options: engine.Options{N: 60, Seed: 11}})
	if r.Counts.Trials != 60 {
		t.Fatalf("Trials = %d", r.Counts.Trials)
	}
	// 32b_rb10 on ConvNet is the paper's most vulnerable configuration;
	// with 60 injections at least one should land in a high integer bit
	// and change the ranking. This is probabilistic but extremely safe.
	if r.Counts.Hits[sdc.SDC1] == 0 {
		t.Log("warning: no SDC-1 in 60 injections (possible but unlikely)")
	}
}

func TestNewPanicsWithoutInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without inputs did not panic")
		}
	}()
	New(smallNet(), numeric.Float16, nil)
}

func TestGoldenCaching(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(2))
	g0a := c.Golden(0)
	g0b := c.Golden(0)
	if g0a != g0b {
		t.Error("golden executions not cached")
	}
	if c.Profile() == nil {
		t.Error("profile not exposed")
	}
}

// TestCampaignGoldensComputedOncePerInput: a campaign resolves each input's
// golden once — one GoldenFn call, hence one forward pass behind a hook that
// does not cache — whether Golden asks first or a stratified run's shards
// and phases do, and however many runs follow.
func TestCampaignGoldensComputedOncePerInput(t *testing.T) {
	c := New(smallNet(), numeric.Fx16RB10, smallInputs(3))
	var forwards atomic.Int32
	c.GoldenFn = func(_ int, compute func() *network.Execution) *network.Execution {
		forwards.Add(1)
		return compute()
	}
	g := c.Golden(1)
	opt := Options{Options: engine.Options{N: 120, Seed: 5, Workers: 3, Sampling: engine.SamplingStratified}}
	c.Run(opt)
	c.Run(opt)
	if got := int(forwards.Load()); got != len(c.Inputs) {
		t.Errorf("%d golden forwards after Golden and two stratified runs over %d inputs", got, len(c.Inputs))
	}
	if c.Golden(1) != g {
		t.Error("Golden(1) changed across runs")
	}
}

func TestUniformSelectorCoversTargets(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	r := c.Run(Options{Options: engine.Options{N: 400, Seed: 13}})
	for tgt, counts := range r.PerTarget {
		if counts.Trials == 0 {
			t.Errorf("latch target %v never injected", layers.Target(tgt))
		}
	}
	_ = accel.LatchesPerPE
}

// TestDenseMatchesIncremental runs the same campaign through the sparse
// incremental engine and the dense baseline for EVERY numeric format and
// requires bit-identical reports: identical SDC tallies in every
// breakdown, identical spread metrics, and bit-identical sampled
// activation values. This is the campaign-level closure of the per-layer
// ForwardDelta property tests.
func TestDenseMatchesIncremental(t *testing.T) {
	for _, dt := range numeric.Types {
		inc := New(smallNet(), dt, smallInputs(2))
		dense := New(smallNet(), dt, smallInputs(2))
		opt := Options{Options: engine.Options{N: 400, Seed: 21, Workers: 2}, TrackValues: 64, TrackSpread: true}
		ri := inc.Run(opt)
		optDense := opt
		optDense.Dense = true
		rd := dense.Run(optDense)
		// Masked is an incremental-engine diagnostic — the dense baseline
		// never proves masking — so it is the one field excluded from the
		// bit-identity requirement.
		if rd.Masked != 0 {
			t.Fatalf("%s: dense baseline reported %d masked faults", dt, rd.Masked)
		}
		rd.Masked = ri.Masked
		assertReportsBitIdentical(t, dt.String(), ri, rd)
	}
}

// TestShardPartitionCoversEverySiteOnce is the property test behind the
// strided shard partition: for any (N, shards), the strided partition assigns
// every injection index to exactly one shard, so a distributed campaign
// injects exactly the same site multiset as a single-process one.
func TestShardPartitionCoversEverySiteOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(2000)
		shards := 1 + rng.Intn(32)
		covered := make([]int, n)
		for s := 0; s < shards; s++ {
			for i := s; i < n; i += shards {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d shards=%d: injection %d covered %d times", n, shards, i, c)
			}
		}
	}
}

// TestRunShardMergeMatchesRun requires the shard-order merge of every
// serially-run shard partial to be bit-identical to Run with Workers equal
// to the shard count — the determinism contract the distributed campaign service
// builds on — including the order-sensitive value samples and spread sums.
func TestRunShardMergeMatchesRun(t *testing.T) {
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		const shards = 5
		opt := Options{Options: engine.Options{N: 203, Seed: 17, Workers: shards}, TrackValues: 48, TrackSpread: true}

		whole := New(smallNet(), dt, smallInputs(2))
		want := whole.Run(opt)

		sharded := New(smallNet(), dt, smallInputs(2))
		got := engine.MergeAll(engine.ShardReports(sharded.Surface(opt)))

		assertReportsBitIdentical(t, string(dt.String()), got, want)
	}
}

// TestReportJSONRoundTrip pins the wire format of shard reports: NaN and
// Inf faulty activations must survive the worker -> coordinator hop
// bit-exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(2))
	r := c.Run(Options{Options: engine.Options{N: 150, Seed: 23}, TrackValues: 32, TrackSpread: true})
	r.Values = append(r.Values, ValueRecord{Golden: 1.5, Faulty: math.NaN(), SDC: true},
		ValueRecord{Golden: -0, Faulty: math.Inf(-1)})

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	assertReportsBitIdentical(t, "roundtrip", &back, r)
}

// assertReportsBitIdentical compares every field of two reports bit-wise.
func assertReportsBitIdentical(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Counts != want.Counts || got.Masked != want.Masked {
		t.Fatalf("%s: counts diverged: %+v/%d vs %+v/%d", label, got.Counts, got.Masked, want.Counts, want.Masked)
	}
	if got.Detection != want.Detection {
		t.Fatalf("%s: detection diverged", label)
	}
	for b := range want.PerBit {
		if got.PerBit[b] != want.PerBit[b] {
			t.Fatalf("%s: per-bit %d diverged", label, b)
		}
	}
	for b := range want.PerBlock {
		if got.PerBlock[b] != want.PerBlock[b] {
			t.Fatalf("%s: per-block %d diverged", label, b)
		}
		if math.Float64bits(got.SpreadSum[b]) != math.Float64bits(want.SpreadSum[b]) || got.SpreadN[b] != want.SpreadN[b] {
			t.Fatalf("%s: spread at block %d diverged", label, b)
		}
	}
	for tg := range want.PerTarget {
		if got.PerTarget[tg] != want.PerTarget[tg] {
			t.Fatalf("%s: per-target %d diverged", label, tg)
		}
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: value sample sizes diverged: %d vs %d", label, len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		a, b := got.Values[i], want.Values[i]
		if math.Float64bits(a.Golden) != math.Float64bits(b.Golden) ||
			math.Float64bits(a.Faulty) != math.Float64bits(b.Faulty) || a.SDC != b.SDC {
			t.Fatalf("%s: value record %d diverged: %+v vs %+v", label, i, a, b)
		}
	}
	if (got.Strata == nil) != (want.Strata == nil) {
		t.Fatalf("%s: strata presence diverged: %v vs %v", label, got.Strata != nil, want.Strata != nil)
	}
	if want.Strata != nil {
		gs, ws := got.Strata, want.Strata
		if gs.Blocks != ws.Blocks || gs.Bits != ws.Bits {
			t.Fatalf("%s: strata dims diverged: %dx%d vs %dx%d", label, gs.Blocks, gs.Bits, ws.Blocks, ws.Bits)
		}
		for h := range ws.Counts {
			if math.Float64bits(gs.Weight[h]) != math.Float64bits(ws.Weight[h]) {
				t.Fatalf("%s: stratum %d weight diverged", label, h)
			}
			if gs.Counts[h] != ws.Counts[h] {
				t.Fatalf("%s: stratum %d counts diverged: %+v vs %+v", label, h, gs.Counts[h], ws.Counts[h])
			}
		}
		if (gs.SpreadSum == nil) != (ws.SpreadSum == nil) {
			t.Fatalf("%s: strata spread presence diverged", label)
		}
		for h := range ws.SpreadSum {
			if math.Float64bits(gs.SpreadSum[h]) != math.Float64bits(ws.SpreadSum[h]) || gs.SpreadN[h] != ws.SpreadN[h] {
				t.Fatalf("%s: stratum %d spread diverged", label, h)
			}
		}
	}
}
