package network

import (
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// FuzzSlotScratch drives an arbitrary sequence of injections through one
// reused SlotScratch over two golden executions that alternate, as a slot's
// draw units alternate inputs: single faults (ForwardFrom), multi-fault
// fronts (ForwardFront), changed input sets (ForwardFromInput) and
// bit-plane values propagated bit after bit with repeats (Propagate), with
// explicit restores in between. Every faulty execution must be bit-identical
// on every activation tensor to its dense oracle — ForwardFromDense, or
// ForwardWithActDense of the golden activation patched by the per-tap
// oracle, or ForwardFromInputDense — however the scratch's buffers were left
// by the injections before it, and after every restore every buffer the
// scratch holds must bit-equal its golden layer.
func FuzzSlotScratch(f *testing.F) {
	cached := deepNet(23)
	cached.EnableQuantCache()
	nets := []*Network{deepNet(19), cached, lrnNet(true, 7), tinyNet()}
	cutoffs := []float64{0, 1e-9, 1}

	type goldenKey struct {
		net int
		dt  numeric.Type
	}
	goldens := make(map[goldenKey][2]*Execution)

	// seed, net, dtype, cutoff, script (one byte per injection: its kind)
	f.Add(int64(1), uint8(0), uint8(2), uint8(0), []byte{0, 0, 1, 2, 3, 4, 0})
	f.Add(int64(2), uint8(1), uint8(5), uint8(0), []byte{3, 3, 0, 1, 1, 4, 2, 2})
	f.Add(int64(3), uint8(2), uint8(3), uint8(1), []byte{1, 2, 3, 0, 4, 3, 1})
	f.Add(int64(4), uint8(1), uint8(0), uint8(2), []byte{2, 0, 3, 1, 0, 2})
	f.Add(int64(5), uint8(3), uint8(4), uint8(0), []byte{0, 1, 2, 3, 4, 0, 1, 2, 3})

	f.Fuzz(func(t *testing.T, seed int64, netSel, dtSel, cutoffSel uint8, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		ni := int(netSel) % len(nets)
		n := nets[ni]
		dt := numeric.Types[int(dtSel)%len(numeric.Types)]
		k := goldenKey{ni, dt}
		gs, ok := goldens[k]
		if !ok {
			gs = [2]*Execution{n.Forward(dt, randInput(n.InShape, 42)), n.Forward(dt, randInput(n.InShape, 43))}
			goldens[k] = gs
		}
		n.setDenseCutoff(cutoffs[int(cutoffSel)%len(cutoffs)])
		rng := rand.New(rand.NewSource(seed))
		macs := n.MACLayerIndices()
		sc := n.NewSlotScratch(dt)

		check := func(what string, g, got, want *Execution) {
			t.Helper()
			for l := range want.Acts {
				if !tensor.BitIdentical(got.Acts[l], want.Acts[l]) {
					t.Fatalf("%s/%s %s: layer %d differs from the dense oracle", n.Name, dt, what, l)
				}
			}
			last := len(got.Acts) - 1
			if got.Masked && got.Acts[last] != g.Acts[last] {
				t.Fatalf("%s/%s %s: masked execution does not alias the golden output", n.Name, dt, what)
			}
		}
		// macFault draws a fault of one MAC of layer li at output oi.
		macFault := func(li, oi int) layers.Fault {
			chain := n.Layers[li].(interface{ MACChainLen() int }).MACChainLen()
			bit := rng.Intn(dt.Width())
			return layers.Fault{
				OutputIndex: oi, MACStep: rng.Intn(chain),
				Target: layers.Target(rng.Intn(int(layers.NumTargets))),
				Bit:    bit, Width: 1 + rng.Intn(min(2, dt.Width()-bit)),
			}
		}
		// patchedOracle is the dense run of golden's layer li activation
		// with the given elements replaced.
		patchedOracle := func(g *Execution, li int, elems []int, vals []float64) *Execution {
			act := g.Acts[li].Clone()
			for i, oi := range elems {
				act.Data[oi] = vals[i]
			}
			return n.ForwardWithActDense(dt, g, li, act)
		}

		for step, op := range script {
			g := gs[step%2]
			li := macs[rng.Intn(len(macs))]
			act := g.Acts[li]
			switch op % 5 {
			case 0: // one MAC
				fault := macFault(li, rng.Intn(len(act.Data)))
				ref := fault
				want := n.ForwardFromDense(dt, g, li, &ref)
				got := sc.ForwardFrom(g, li, &fault)
				if fault.Applied != ref.Applied {
					t.Fatalf("ForwardFrom applied=%v, dense %v", fault.Applied, ref.Applied)
				}
				check("single fault", g, got, want)
			case 1: // a front of distinct elements
				var front []layers.Fault
				var elems []int
				var vals []float64
				for _, oi := range rng.Perm(len(act.Data))[:1+rng.Intn(min(8, len(act.Data)))] {
					flt := macFault(li, oi)
					front = append(front, flt)
					elems = append(elems, oi)
					vals = append(vals, tapOracle(n.Layers[li], dt, g.LayerInput(li), flt))
				}
				check("front", g, sc.ForwardFront(g, li, front), patchedOracle(g, li, elems, vals))
			case 2: // a changed input set of any layer
				li = rng.Intn(len(n.Layers))
				src := g.LayerInput(li)
				corrupted := src.Clone()
				var set []int
				for i := rng.Intn(1 + len(src.Data)/4); i >= 0; i-- {
					j := rng.Intn(len(src.Data))
					corrupted.Data[j] = dt.FlipBits(src.Data[j], rng.Intn(dt.Width()), 1)
					set = append(set, j)
				}
				want := n.ForwardFromInputDense(dt, g, li, corrupted)
				check("input set", g, sc.ForwardFromInput(g, li, corrupted, set), want)
			case 3: // one site's plane values, bit after bit, some repeated
				site := macFault(li, rng.Intn(len(act.Data)))
				site.Width = 1
				var bits []int
				for i := 0; i < 4; i++ {
					bits = append(bits, rng.Intn(dt.Width()))
				}
				bits = append(bits, bits[0], bits[1], bits[1])
				for _, b := range bits {
					site.Bit = b
					fv := tapOracle(n.Layers[li], dt, g.LayerInput(li), site)
					got := sc.Propagate(g, li, site.OutputIndex, fv)
					check("plane value", g, got, patchedOracle(g, li, []int{site.OutputIndex}, []float64{fv}))
				}
			case 4:
				sc.restore()
				checkRestored(t, sc)
			}
		}
		sc.restore()
		checkRestored(t, sc)
	})
}

// checkRestored requires every buffer of a restored scratch to bit-equal
// its golden layer.
func checkRestored(t *testing.T, sc *SlotScratch) {
	t.Helper()
	for _, b := range sc.sets {
		for li, buf := range b.acts {
			if buf != nil && !tensor.BitIdentical(buf, b.golden.Acts[li]) {
				t.Fatalf("restored scratch buffer of layer %d differs from golden", li)
			}
		}
	}
}
