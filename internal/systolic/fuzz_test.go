package systolic

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// fuzzLayer is one of the fault fuzzers' two layers on tinyArray: a 3×3
// stride-1 pad-1 CONV, or (fc) a 10→7 FC, whose stream axis has P = 1.
func fuzzLayer(fc bool) (layers.Layer, *tensor.Tensor) {
	if fc {
		return fxFC(7, 10, 7), fxInput(207, 1, 1, 10)
	}
	return fxConv(3, 2, 3, 3, 1, 1), fxInput(103, 2, 5, 5)
}

// fuzzState is one (layer, dataflow) leg of the fault fuzzers: the
// simulator, its input, the geometry and the fault-free ofmap.
type fuzzState struct {
	sim    *Sim
	in     *tensor.Tensor
	geo    Geometry
	golden []float64
}

func newFuzzState(fc bool, dt numeric.Type, flow Dataflow) fuzzState {
	l, in := fuzzLayer(fc)
	sim := NewFlow(l, dt, tinyArray, flow)
	return fuzzState{sim: sim, in: in, geo: sim.Geometry(in.Shape), golden: sim.Run(in, nil).Data}
}

// checkFaultAddress is the fault fuzzers' shared property: an out-of-range
// address must error, and an in-range one must resolve to exactly one site
// with a valid bit span (Encode/Resolve bijection), the cycle-level
// simulation must consume it (except the architecturally masked
// pipe-at-tile-edge case, which must change nothing), and the campaign
// path's per-MAC corruption front must reproduce the simulator's faulted
// ofmap bit for bit.
func checkFaultAddress(t *testing.T, dt numeric.Type, st fuzzState, fault Fault) {
	flow := st.geo.Flow
	site, err := st.geo.Resolve(&fault, dt.Width())
	if err != nil {
		return // out-of-range: rejected, nothing to inject
	}
	if site.K < 0 || site.K >= st.geo.K || site.Out < 0 || site.Out >= st.geo.Outs ||
		site.P < 0 || site.P >= st.geo.P {
		t.Fatalf("%s: Resolve(%+v) produced out-of-range site %+v", flow, fault, site)
	}
	if site.Width < 1 || site.Bit < 0 || site.Bit+site.Width > dt.Width() {
		t.Fatalf("%s: Resolve(%+v) produced invalid bit span %+v", flow, fault, site)
	}
	enc := st.geo.Encode(site)
	norm := fault
	if norm.Width == 0 {
		norm.Width = 1
	}
	if enc != norm {
		t.Fatalf("%s: Encode(Resolve(%+v)) = %+v; address decodes to more than one site", flow, norm, enc)
	}

	faulty := st.sim.Run(st.in, &fault)
	edgePipe := st.geo.PipeMasked(site)
	if fault.Applied == edgePipe {
		t.Fatalf("%s: fault %+v: applied=%v, want %v", flow, fault, fault.Applied, !edgePipe)
	}

	// The campaign's corruption front must reproduce the simulator.
	target, elems := st.geo.effects(nil, site)
	if edgePipe != (len(elems) == 0) {
		t.Fatalf("%s: site %+v: effects emitted %d elems, arch-masked=%v", flow, site, len(elems), edgePipe)
	}
	want := append([]float64(nil), st.golden...)
	for _, oi := range elems {
		want[oi] = chainEval(st.sim.Layer, dt, st.in, oi, site, target)
	}
	for i := range want {
		if math.Float64bits(faulty.Data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: site %+v: out[%d] = %v (sim) vs %v (effect expansion)",
				flow, site, i, faulty.Data[i], want[i])
		}
	}
}

// FuzzSystolicFault drives arbitrary physical fault addresses through the
// weight-stationary decoder on the CONV layer (checkFaultAddress). Its
// seeds are the first and last corners, a pipe at a tile edge and a
// drain-cycle reject; FuzzDataflowFault covers the other dataflows and FC.
func FuzzSystolicFault(f *testing.F) {
	dt := numeric.Fx16RB10
	st := newFuzzState(false, dt, WeightStationary)
	geo := st.geo

	f.Add(0, 0, 0, 0, 0, 0, 1)
	f.Add(1, 5, 2, 1, 1, 7, 1)
	f.Add(geo.Passes-1, geo.CyclesPerPass-1, geo.Rows-1, geo.Cols-1, 3, 15, 2)
	f.Add(0, 3, 0, 2, 3, 14, 1)  // pipe at a tile edge
	f.Add(2, 100, 1, 1, 2, 8, 3) // drain-cycle reject
	f.Fuzz(func(t *testing.T, pass, cycle, row, col, latch, bit, width int) {
		checkFaultAddress(t, dt, st, Fault{
			Pass: pass, Cycle: cycle, Row: row, Col: col,
			Latch: Latch(latch), Bit: bit, Width: width,
		})
	})
}

// FuzzDataflowFault is FuzzSystolicFault over every dataflow, on the CONV
// or (fc) the FC layer: the effect-expansion equivalence proof driven from
// fuzzed addresses instead of hand-picked sites.
func FuzzDataflowFault(f *testing.F) {
	dt := numeric.Fx16RB10
	var states [2][NumDataflows]fuzzState
	for i, fc := range []bool{false, true} {
		for flow := WeightStationary; flow < NumDataflows; flow++ {
			states[i][flow] = newFuzzState(fc, dt, flow)
		}
	}

	f.Add(1, 0, 0, 0, 0, 0, 0, 1, false)
	f.Add(1, 1, 5, 2, 1, 1, 7, 1, false)
	f.Add(2, 0, 3, 0, 2, 3, 14, 2, false)
	f.Add(2, 4, 2, 1, 2, 0, 4, 3, false)
	// FC addresses, encoded from in-range sites.
	for _, seed := range []struct {
		flow Dataflow
		site Site
	}{
		{WeightStationary, Site{K: 5, Out: 3, Latch: LatchWeight, Bit: 5, Width: 1}},
		{OutputStationary, Site{K: 8, Out: 1, Latch: LatchPipe, Bit: 9, Width: 2}},
	} {
		e := states[1][seed.flow].geo.Encode(seed.site)
		f.Add(int(seed.flow), e.Pass, e.Cycle, e.Row, e.Col, int(e.Latch), e.Bit, e.Width, true)
	}
	f.Fuzz(func(t *testing.T, flowInt, pass, cycle, row, col, latch, bit, width int, fc bool) {
		flow := Dataflow(((flowInt % int(NumDataflows)) + int(NumDataflows)) % int(NumDataflows))
		st := states[0][flow]
		if fc {
			st = states[1][flow]
		}
		checkFaultAddress(t, dt, st, Fault{
			Pass: pass, Cycle: cycle, Row: row, Col: col,
			Latch: Latch(latch), Bit: bit, Width: width,
		})
	})
}

// FuzzPreScreenSoundness re-simulates every flip the shared bit-plane
// evaluator reports masked without a faulty execution at a single-read
// systolic latch (Geometry.planeTarget) of conv1, which feeds a ReLU: under
// each dataflow that reads the fuzzed latch once, the act, weight or psum
// register's flip runs through network.ForwardFrom and must come back
// Masked with a bit-identical final activation and the golden
// classification. Bits the ReLU kill claimed (pre) carry no replayed value;
// every other reported faulty chain value must be the simulated one.
func FuzzPreScreenSoundness(f *testing.F) {
	dt := numeric.Fx16RB10
	net := buildSmall()
	net.EnableQuantCache()
	g := net.Forward(dt, smallInputs(1)[0])
	const li = 0 // conv1, followed by ReLU
	outs := g.Acts[li].Shape.Elems()
	chain := net.Layers[li].(*layers.ConvLayer).MACChainLen()
	goldenOut := sdc.Classify(net, g, g)
	final := len(g.Acts) - 1

	f.Add(0, 0, 0)
	f.Add(7, 3, 1)
	f.Add(63, 8, 2)
	f.Fuzz(func(t *testing.T, outIdx, macStep, latch int) {
		outIdx = ((outIdx % outs) + outs) % outs
		macStep = ((macStep % chain) + chain) % chain
		l := Latch(((latch % int(LatchPipe)) + int(LatchPipe)) % int(LatchPipe))
		gv := g.Acts[li].Data[outIdx]

		seen := map[layers.Target]bool{}
		for flow := Dataflow(0); flow < NumDataflows; flow++ {
			target, ok := Geometry{Flow: flow}.planeTarget(l)
			if !ok || seen[target] {
				continue
			}
			seen[target] = true
			site := layers.PlaneFault{OutputIndex: outIdx, MACStep: macStep, Target: target}
			batch := net.NewInjectionBatch(dt, g, li)
			engine.EvalPlaneSite(net, dt, g, li, batch, net.NewSlotScratch(dt), site, dt.Width(), 0, false,
				func(bit int, fv float64, outcome sdc.Outcome, faulty *network.Execution, pre bool) {
					if faulty != nil {
						return // a real execution, classified as such
					}
					fault := &layers.Fault{OutputIndex: outIdx, MACStep: macStep, Target: target, Bit: bit}
					sim := net.ForwardFrom(dt, g, li, fault)
					if !fault.Applied || !sim.Masked {
						t.Fatalf("%s %s: evaluator reports (out %d, step %d, bit %d) masked; execution disagrees",
							flow, l, outIdx, macStep, bit)
					}
					for i := range sim.Acts[final].Data {
						if math.Float64bits(sim.Acts[final].Data[i]) != math.Float64bits(g.Acts[final].Data[i]) {
							t.Fatalf("%s %s: masked flip (out %d, step %d, bit %d) reached the output", flow, l, outIdx, macStep, bit)
						}
					}
					if got := sim.Acts[li].Data[outIdx]; !pre && math.Float64bits(got) != math.Float64bits(fv) {
						t.Fatalf("%s %s: bit %d reported chain value %v, simulation %v (golden %v)", flow, l, bit, fv, got, gv)
					}
					if got := sdc.Classify(net, g, sim); outcome != goldenOut || got != goldenOut {
						t.Fatalf("%s %s: masked flip classified %+v, want golden %+v", flow, l, got, goldenOut)
					}
				})
		}
	})
}
