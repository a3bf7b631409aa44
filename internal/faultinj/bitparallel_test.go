package faultinj

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// stripPreMasked removes the bit-plane diagnostics before a bit-identity
// compare against the scalar reference, which never pre-screens. Every
// other field must match exactly.
func stripPreMasked(r *Report) {
	r.PreMasked = 0
	r.PreMaskedPerBit = nil
}

// TestSiteBitPlaneMatchesSiteScalar is the tentpole's central property:
// for every numeric format, the bit-parallel evaluation mode — one chain
// replay per site plus the analytical pre-screen — produces a report
// bit-identical to the per-bit scalar replay of the same site draws, with
// value samples, spread sums and strata included.
func TestSiteBitPlaneMatchesSiteScalar(t *testing.T) {
	for _, dt := range numeric.Types {
		for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
			opt := Options{Options: engine.Options{N: 260, Seed: 31, Workers: 2, Sampling: sampling}, TrackValues: 40, TrackSpread: true}

			oScalar := opt
			oScalar.Eval = engine.EvalSiteScalar
			want := New(smallNet(), dt, smallInputs(2)).Run(oScalar)

			oPlane := opt
			oPlane.Eval = engine.EvalSiteBitPlane
			got := New(smallNet(), dt, smallInputs(2)).Run(oPlane)

			if got.PreMasked > got.Masked {
				t.Fatalf("%s/%s: PreMasked %d exceeds Masked %d", dt, sampling, got.PreMasked, got.Masked)
			}
			pre := 0
			for _, n := range got.PreMaskedPerBit {
				pre += n
			}
			if pre != got.PreMasked {
				t.Fatalf("%s/%s: PreMaskedPerBit sums to %d, PreMasked is %d", dt, sampling, pre, got.PreMasked)
			}
			stripPreMasked(got)
			assertReportsBitIdentical(t, fmt.Sprintf("%s/%s", dt, sampling), got, want)
		}
	}
}

// TestSiteModesShardMergeMatchesRun extends the shard-merge determinism
// contract to the site-draw modes: for shard counts 1, 2 and 7, the
// shard-order merge of serially-run shard partials is bit-identical to Run, for both
// site modes and both sampling designs — the property the distributed
// campaign service (and its resume path) relies on.
func TestSiteModesShardMergeMatchesRun(t *testing.T) {
	for _, eval := range []engine.EvalMode{engine.EvalSiteScalar, engine.EvalSiteBitPlane} {
		for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
			for _, shards := range []int{1, 2, 7} {
				opt := Options{
					Options:     engine.Options{N: 203, Seed: 17, Workers: shards, Sampling: sampling, Eval: eval},
					TrackValues: 48,
					TrackSpread: true,
				}
				want := New(smallNet(), numeric.Fx16RB10, smallInputs(2)).Run(opt)

				sharded := New(smallNet(), numeric.Fx16RB10, smallInputs(2))
				got := engine.MergeAll(engine.ShardReports(sharded.Surface(opt)))

				label := fmt.Sprintf("%s/%s/shards=%d", eval, sampling, shards)
				if got.PreMasked != want.PreMasked {
					t.Fatalf("%s: PreMasked diverged: %d vs %d", label, got.PreMasked, want.PreMasked)
				}
				stripPreMasked(got)
				stripPreMasked(want)
				assertReportsBitIdentical(t, label, got, want)
			}
		}
	}
}

// TestSiteModesWithDetector pins the detector path of the bit-plane mode:
// detectors must observe the real faulty execution of every injection
// (masked ones included), so the ReLU-kill pre-screen is disabled and
// product-masked bits synthesize the golden-aliased execution. Tally must
// be bit-identical to the scalar mode's.
func TestSiteModesWithDetector(t *testing.T) {
	det := func(e *network.Execution) bool { return e.Output().Data[0] > 0.1 }
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		oScalar := Options{Options: engine.Options{N: 200, Seed: 23, Detector: det, Eval: engine.EvalSiteScalar}}
		want := New(smallNet(), dt, smallInputs(2)).Run(oScalar)

		oPlane := oScalar
		oPlane.Eval = engine.EvalSiteBitPlane
		got := New(smallNet(), dt, smallInputs(2)).Run(oPlane)

		if got.PreMasked != 0 {
			t.Fatalf("%s: detector campaign pre-screened %d injections", dt, got.PreMasked)
		}
		assertReportsBitIdentical(t, dt.String(), got, want)
	}
}

// TestPreScreenSoundness re-checks, by full scalar simulation, every bit
// the shared bit-plane evaluator reports masked without a faulty execution
// at a datapath site — thousands of random sites across every format, fed
// to engine.EvalPlaneSite as a site-draw campaign feeds it. Simulation must
// agree that the fault never reaches the output. A bit the ReLU kill
// claimed (pre) has no replayed value; every other bit's reported faulty
// chain value must be the simulated one, so product-identity bits leave
// the faulted element bit-identical to golden.
func TestPreScreenSoundness(t *testing.T) {
	for _, dt := range numeric.Types {
		c := New(smallNet(), dt, smallInputs(2))
		opt := Options{Options: engine.Options{Eval: engine.EvalSiteBitPlane}}
		c.setup(&opt)
		width := dt.Width()
		rng := rand.New(rand.NewSource(int64(123 + width)))

		claimed, checked := 0, 0
		sc := c.Net.NewSlotScratch(c.DType)
		for trial := 0; trial < 400; trial++ {
			site := c.Profile().Draw(rng, -1, 0, 1)
			golden := c.Golden(trial % len(c.Inputs))
			ref := sdc.Classify(c.Net, golden, golden)
			li := site.Layer
			batch := c.Net.NewInjectionBatch(c.DType, golden, li)
			gv := golden.Acts[li].Data[site.Fault.OutputIndex]

			f := layers.PlaneFault{OutputIndex: site.Fault.OutputIndex, MACStep: site.Fault.MACStep, Target: site.Fault.Target}
			engine.EvalPlaneSite(c.Net, c.DType, golden, li, batch, sc, f, width, 0, false,
				func(b int, fv float64, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
					if faulty != nil {
						return // a real execution, classified as such
					}
					if pre || math.Float64bits(fv) == math.Float64bits(gv) {
						claimed++
					}
					checked++
					fault := site.Fault
					fault.Bit = b
					sim := c.Net.ForwardFrom(c.DType, golden, li, &fault)
					if !sim.Masked {
						t.Fatalf("%s: evaluator reported bit %d masked at %s, simulation disagrees", dt, b, site)
					}
					if got := sim.Acts[li].Data[fault.OutputIndex]; !pre && math.Float64bits(got) != math.Float64bits(fv) {
						t.Fatalf("%s: bit %d at %s reported chain value %v, simulation %v", dt, b, site, fv, got)
					}
					if outcome != ref || sdc.Classify(c.Net, golden, sim) != ref {
						t.Fatalf("%s: masked bit %d at %s classified differently from golden", dt, b, site)
					}
				})
		}
		if claimed == 0 {
			t.Fatalf("%s: pre-screen never fired in 400 random sites", dt)
		}
		t.Logf("%s: %d masked bits verified, %d of them screened or golden-valued", dt, checked, claimed)
	}
}

// TestSiteModeDrawCoverage pins the draw-unit bookkeeping: a site-mode
// campaign with N injections runs exactly N injections, every unit's bits
// ascend 0..width-1, and a ragged final unit (N not a multiple of the
// width) evaluates only the low bits.
func TestSiteModeDrawCoverage(t *testing.T) {
	width := numeric.Float16.Width()
	n := 10*width + 3 // ragged tail
	r := New(smallNet(), numeric.Float16, smallInputs(1)).Run(Options{Options: engine.Options{N: n, Seed: 9, Eval: engine.EvalSiteBitPlane}})
	if r.Counts.Trials != n {
		t.Fatalf("Trials = %d, want %d", r.Counts.Trials, n)
	}
	// Bits 0..2 appear 11 times (10 full units + the ragged tail), bits
	// 3..15 ten times.
	for b := 0; b < width; b++ {
		want := 10
		if b < 3 {
			want = 11
		}
		if r.PerBit[b].Trials != want {
			t.Fatalf("bit %d trials = %d, want %d", b, r.PerBit[b].Trials, want)
		}
	}
}

// TestSiteModeValidation pins the option combinations site modes reject.
func TestSiteModeValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"custom selector", Options{Options: engine.Options{N: 10, Eval: engine.EvalSiteBitPlane}, Selector: BitSelector(3)}},
		{"dense", Options{Options: engine.Options{N: 10, Eval: engine.EvalSiteScalar}, Dense: true}},
		{"unknown mode", Options{Options: engine.Options{N: 10, Eval: engine.EvalMode("site-nonsense")}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			New(smallNet(), numeric.Float16, smallInputs(1)).Run(tc.opt)
		}()
	}
}

// TestDrawUnits pins the unit arithmetic the engine, the campaign spec and
// the coordinator all share.
func TestDrawUnits(t *testing.T) {
	for _, tc := range []struct{ n, bits, want int }{
		{0, 16, 0}, {1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {203, 16, 13},
		{100, 1, 100}, // per-bit design: unit == injection
		{64, 64, 1}, {65, 64, 2},
	} {
		if got := engine.DrawUnits(tc.n, tc.bits); got != tc.want {
			t.Errorf("engine.DrawUnits(%d, %d) = %d, want %d", tc.n, tc.bits, got, tc.want)
		}
	}
}

// TestMaskedExecutionRetainsFaultedElement documents the execution shape
// the site modes' value records rely on: a scalar masked run whose fault
// died downstream (not inside the chain) still reports the faulted
// element's recomputed value at the faulted layer, and propagating that
// value through a slot scratch comes back masked the same way.
func TestMaskedExecutionRetainsFaultedElement(t *testing.T) {
	net := smallNet()
	dt := numeric.Fx32RB26
	c := New(net, dt, smallInputs(1))
	opt := Options{}
	c.setup(&opt)
	golden := c.Golden(0)
	sc := net.NewSlotScratch(dt)
	// Bit 0 of the accumulator at the last MAC step: below the quantization
	// floor of nothing (fx keeps it), but a tiny delta that ReLU/pool
	// almost always masks downstream.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		site := c.Profile().Draw(rng, -1, 0, 1)
		if site.Layer != 0 {
			continue
		}
		fault := site.Fault
		faulty := net.ForwardFrom(dt, golden, 0, &fault)
		gv := golden.Acts[0].Data[fault.OutputIndex]
		fv := faulty.Acts[0].Data[fault.OutputIndex]
		if faulty.Masked && math.Float64bits(fv) != math.Float64bits(gv) {
			// Masked downstream, yet the faulted element keeps its
			// recomputed value — the property under test.
			exec := sc.Propagate(golden, 0, fault.OutputIndex, fv)
			if !exec.Masked || math.Float64bits(exec.Acts[0].Data[fault.OutputIndex]) != math.Float64bits(fv) {
				t.Fatalf("SlotScratch.Propagate disagreed with scalar masking at %s", site)
			}
			return
		}
	}
	t.Skip("no downstream-masked fault found in 200 draws")
}

// TestPlaneForwarderImplemented pins that both MAC layer kinds expose the
// bit-plane interface the campaign depends on.
func TestPlaneForwarderImplemented(t *testing.T) {
	net := smallNet()
	for _, l := range net.Layers {
		k := l.Kind()
		if k != layers.Conv && k != layers.FC {
			continue
		}
		if _, ok := l.(layers.PlaneForwarder); !ok {
			t.Errorf("%s does not implement PlaneForwarder", l.Name())
		}
	}
}
