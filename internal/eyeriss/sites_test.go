package eyeriss

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/numeric"
)

// stripPre returns a shallow copy with the PreMasked diagnostic zeroed —
// the one field the bit-plane mode is allowed to differ from the scalar
// oracle in (the scalar mode simulates what the pre-screen proves).
func stripPre(r *Report) *Report {
	cp := *r
	cp.PreMasked = 0
	return &cp
}

// TestPSumSiteBitPlaneMatchesSiteScalar is the buffer-surface half of the
// site-mode exactness property: for every numeric format and both sampling
// designs, a PSum REG campaign under EvalSiteBitPlane — one bit-parallel
// chain replay per site plus the analytical ReLU pre-screen — must produce
// a report bit-identical to EvalSiteScalar's per-bit chain replays.
func TestPSumSiteBitPlaneMatchesSiteScalar(t *testing.T) {
	net, inputs := buildSmall(), smallInputs(3)
	preFx := 0
	for _, dt := range numeric.Types {
		c := &Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: inputs}}
		for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
			opt := Options{N: 2*dt.Width() + 5, Seed: 977, Workers: 2, Sampling: sampling}
			opt.Eval = engine.EvalSiteScalar
			ref := c.Run(PSumReg, opt)
			opt.Eval = engine.EvalSiteBitPlane
			got := c.Run(PSumReg, opt)
			if ref.PreMasked != 0 {
				t.Errorf("%s/%v: scalar mode pre-masked %d injections", dt, sampling, ref.PreMasked)
			}
			if !reflect.DeepEqual(stripPre(got), stripPre(ref)) {
				t.Errorf("%s/%v: bit-plane report diverged from scalar:\n got %+v\nwant %+v",
					dt, sampling, got, ref)
			}
			if !dt.IsFloat() {
				preFx += got.PreMasked
			}
			t.Logf("%s/%v: pre-masked %d of %d", dt, sampling, got.PreMasked, opt.N)
		}
	}
	if preFx == 0 {
		t.Error("analytical pre-screen never fired on any fixed-point format")
	}
}

// TestBufferSiteModesAllClasses runs both site modes over every buffer
// class on the Table 8 format: the reuse-window classes replay per bit in
// both modes (identical code, identical draws), and PSum REG crosses the
// plane/scalar boundary — all four must agree bit-for-bit.
func TestBufferSiteModesAllClasses(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	for _, b := range Buffers {
		for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
			opt := Options{N: 37, Seed: 41, Workers: 2, Sampling: sampling}
			opt.Eval = engine.EvalSiteScalar
			ref := c.Run(b, opt)
			opt.Eval = engine.EvalSiteBitPlane
			got := c.Run(b, opt)
			if !reflect.DeepEqual(stripPre(got), stripPre(ref)) {
				t.Errorf("%v/%v: site modes diverged:\n got %+v\nwant %+v", b, sampling, got, ref)
			}
			if b != PSumReg && got.PreMasked != 0 {
				t.Errorf("%v: pre-screen fired on a reuse-window buffer (%d)", b, got.PreMasked)
			}
		}
	}
}

// TestBufferSiteModesShardMergeMatchesRun pins the distributed contract in
// the site modes: the shard-order merge of serially-run shard partials
// (engine.ShardReports) for S in {1, 2, 7} must be bit-identical to Run — including the PreMasked tally —
// for both site modes and both sampling designs.
func TestBufferSiteModesShardMergeMatchesRun(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(3)}}
	for _, b := range []Buffer{PSumReg, ImgReg} {
		for _, eval := range []engine.EvalMode{engine.EvalSiteScalar, engine.EvalSiteBitPlane} {
			for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
				for _, shards := range []int{1, 2, 7} {
					opt := Options{N: 128, Seed: 7, Workers: shards, Sampling: sampling, Eval: eval}
					want := c.Run(b, opt)
					got := engine.MergeAll(engine.ShardReports(c.Surface(b, opt)))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%v/%v/%v shards=%d: merged shards diverged from Run:\n got %+v\nwant %+v",
							b, eval, sampling, shards, got, want)
					}
				}
			}
		}
	}
}

// TestBufferSiteModesWithDetector checks the detector gating: with a
// detector configured the pre-screen must stay off (detectors read the
// faulty execution) and the two site modes must still agree bit-for-bit,
// Detection tallies included.
func TestBufferSiteModesWithDetector(t *testing.T) {
	det := func(f *network.Execution) bool {
		last := f.Acts[len(f.Acts)-1]
		return last.Data[0] > 0.12
	}
	net, inputs := buildSmall(), smallInputs(2)
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		c := &Campaign{Campaign: engine.Campaign{Net: net, DType: dt, Inputs: inputs}}
		opt := Options{N: dt.Width() + 9, Seed: 19, Workers: 2, Detector: det}
		opt.Eval = engine.EvalSiteScalar
		ref := c.Run(PSumReg, opt)
		opt.Eval = engine.EvalSiteBitPlane
		got := c.Run(PSumReg, opt)
		if got.PreMasked != 0 {
			t.Errorf("%s: pre-screen fired under a detector campaign (%d)", dt, got.PreMasked)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: detector site modes diverged:\n got %+v\nwant %+v", dt, got, ref)
		}
		if ref.Detection.Total == 0 {
			t.Errorf("%s: detector never tallied", dt)
		}
	}
}
