package systolic

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/layers"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// FuzzSystolicFault drives arbitrary physical fault addresses through the
// decoder: out-of-range addresses must error, and every in-range address
// must land on exactly one injection site — pinned by the Encode/Resolve
// bijection — and be consumed by the cycle-level simulation (except the
// architecturally masked pipe-at-tile-edge case, which must change
// nothing).
func FuzzSystolicFault(f *testing.F) {
	dt := numeric.Fx16RB10
	l := fxConv(3, 2, 3, 3, 1, 1)
	in := fxInput(103, 2, 5, 5)
	sim := New(l, dt, tinyArray)
	geo := sim.Geometry(in.Shape)
	golden := sim.Run(in, nil)

	f.Add(0, 0, 0, 0, 0, 0, 1)
	f.Add(1, 5, 2, 1, 1, 7, 1)
	f.Add(geo.Passes-1, geo.CyclesPerPass-1, geo.Rows-1, geo.Cols-1, 3, 15, 2)
	f.Add(0, 3, 0, 2, 3, 14, 1)  // pipe at a tile edge
	f.Add(2, 100, 1, 1, 2, 8, 3) // drain-cycle reject
	f.Fuzz(func(t *testing.T, pass, cycle, row, col, latch, bit, width int) {
		fault := Fault{
			Pass: pass, Cycle: cycle, Row: row, Col: col,
			Latch: Latch(latch), Bit: bit, Width: width,
		}
		site, err := geo.Resolve(&fault, dt.Width())
		if err != nil {
			return // out-of-range: rejected, nothing to inject
		}

		// The site must be in range...
		if site.K < 0 || site.K >= geo.K || site.Out < 0 || site.Out >= geo.Outs ||
			site.P < 0 || site.P >= geo.P {
			t.Fatalf("Resolve(%+v) produced out-of-range site %+v", fault, site)
		}
		if site.Width < 1 || site.Bit < 0 || site.Bit+site.Width > dt.Width() {
			t.Fatalf("Resolve(%+v) produced invalid bit span %+v", fault, site)
		}
		// ...and unique: re-encoding recovers the canonical address.
		enc := geo.Encode(site)
		enc.Applied = fault.Applied
		norm := fault
		if norm.Width == 0 {
			norm.Width = 1
		}
		if enc != norm {
			t.Fatalf("Encode(Resolve(%+v)) = %+v; address decodes to more than one site", norm, enc)
		}

		faulty := sim.Run(in, &fault)
		edgePipe := site.Latch == LatchPipe && geo.ColTileEnd(site.Out) == site.Out+1
		if fault.Applied == edgePipe {
			t.Fatalf("fault %+v: applied=%v, want %v", fault, fault.Applied, !edgePipe)
		}
		if edgePipe {
			for i := range golden.Data {
				if math.Float64bits(faulty.Data[i]) != math.Float64bits(golden.Data[i]) {
					t.Fatalf("architecturally masked fault %+v changed output %d", fault, i)
				}
			}
		}
	})
}

// FuzzDataflowFault is FuzzSystolicFault generalized over the dataflow
// axis: for every dataflow, an arbitrary physical address either rejects
// or resolves to exactly one site (Encode/Resolve bijection), the
// cycle-level simulation consumes it (except the architecturally masked
// pipe-at-tile-edge case, which must change nothing), and the campaign
// path's per-MAC corruption front reproduces the simulator's faulted
// ofmap bit for bit — the effect-expansion equivalence proof driven from
// fuzzed addresses instead of hand-picked sites.
func FuzzDataflowFault(f *testing.F) {
	dt := numeric.Fx16RB10
	l := fxConv(3, 2, 3, 3, 1, 1)
	in := fxInput(103, 2, 5, 5)

	type flowState struct {
		sim    *Sim
		geo    Geometry
		golden []float64
	}
	states := make([]flowState, NumDataflows)
	for flow := WeightStationary; flow < NumDataflows; flow++ {
		sim := NewFlow(l, dt, tinyArray, flow)
		states[flow] = flowState{sim: sim, geo: sim.Geometry(in.Shape), golden: sim.Run(in, nil).Data}
	}

	f.Add(1, 0, 0, 0, 0, 0, 0, 1)
	f.Add(1, 1, 5, 2, 1, 1, 7, 1)
	f.Add(2, 0, 3, 0, 2, 3, 14, 2)
	f.Add(2, 4, 2, 1, 2, 0, 4, 3)
	f.Fuzz(func(t *testing.T, flowInt, pass, cycle, row, col, latch, bit, width int) {
		flow := Dataflow(((flowInt % int(NumDataflows)) + int(NumDataflows)) % int(NumDataflows))
		st := states[flow]
		fault := Fault{
			Pass: pass, Cycle: cycle, Row: row, Col: col,
			Latch: Latch(latch), Bit: bit, Width: width,
		}
		site, err := st.geo.Resolve(&fault, dt.Width())
		if err != nil {
			return
		}
		if site.K < 0 || site.K >= st.geo.K || site.Out < 0 || site.Out >= st.geo.Outs ||
			site.P < 0 || site.P >= st.geo.P {
			t.Fatalf("%s: Resolve(%+v) produced out-of-range site %+v", flow, fault, site)
		}
		enc := st.geo.Encode(site)
		norm := fault
		if norm.Width == 0 {
			norm.Width = 1
		}
		if enc != norm {
			t.Fatalf("%s: Encode(Resolve(%+v)) = %+v; address decodes to more than one site", flow, norm, enc)
		}

		faulty := st.sim.Run(in, &fault)
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
			want[oi] = chainEval(l, dt, in, oi, site, target)
		}
		for i := range want {
			if math.Float64bits(faulty.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: site %+v: out[%d] = %v (sim) vs %v (effect expansion)",
					flow, site, i, faulty.Data[i], want[i])
			}
		}
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
