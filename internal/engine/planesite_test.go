package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/sdc"
)

// FuzzPreScreenSoundness re-simulates every flip EvalPlaneSite's analytical
// screen claims masked, over (format, MAC layer, output element, MAC step,
// latch target) of ConvNet: each claimed bit, run through
// network.ForwardFrom, must come back Masked with a bit-identical final
// activation and the golden classification, and a product-identity bit
// must leave the faulted element itself golden. The seed corpus is a fixed
// random draw of sites per (format, target).
func FuzzPreScreenSoundness(f *testing.F) {
	net := models.Build("ConvNet")
	net.EnableQuantCache()
	macs := net.MACLayerIndices()
	goldens := make([]*network.Execution, len(numeric.Types))
	golden := func(d int) *network.Execution {
		if goldens[d] == nil {
			goldens[d] = net.Forward(numeric.Types[d], models.InputFor("ConvNet", 0))
		}
		return goldens[d]
	}

	rng := rand.New(rand.NewSource(123))
	for d := range numeric.Types {
		for target := layers.Target(0); target < layers.NumTargets; target++ {
			for range 4 {
				f.Add(uint8(d), uint8(rng.Intn(len(macs))), rng.Uint32(), rng.Uint32(), uint8(target))
			}
		}
	}
	f.Fuzz(func(t *testing.T, dtSel, layerSel uint8, out, step uint32, targetSel uint8) {
		d := int(dtSel) % len(numeric.Types)
		dt, g := numeric.Types[d], golden(d)
		li := macs[int(layerSel)%len(macs)]
		chain := net.Layers[li].(interface{ MACChainLen() int }).MACChainLen()
		site := layers.PlaneFault{
			OutputIndex: int(out % uint32(g.Acts[li].Shape.Elems())),
			MACStep:     int(step % uint32(chain)),
			Target:      layers.Target(int(targetSel) % int(layers.NumTargets)),
		}
		gv := g.Acts[li].Data[site.OutputIndex]
		batch := net.NewInjectionBatch(dt, g, li)
		same, kill := screen(net, dt, li, batch, site, dt.Width(), gv, 0)
		if same&kill != 0 {
			t.Fatalf("%s %+v: product-identity and ReLU-kill masks overlap: %x", dt, site, same&kill)
		}
		goldenOut := sdc.Classify(net, g, g)
		final := len(g.Acts) - 1
		for bit := 0; bit < dt.Width(); bit++ {
			b := uint64(1) << uint(bit)
			if (same|kill)&b == 0 {
				continue
			}
			fault := layers.Fault{OutputIndex: site.OutputIndex, MACStep: site.MACStep, Target: site.Target, Bit: bit}
			faulty := net.ForwardFrom(dt, g, li, &fault)
			if !fault.Applied || !faulty.Masked {
				t.Fatalf("%s %+v bit %d: screen claims it masked, execution disagrees (applied %v)", dt, site, bit, fault.Applied)
			}
			for i, v := range faulty.Acts[final].Data {
				if math.Float64bits(v) != math.Float64bits(g.Acts[final].Data[i]) {
					t.Fatalf("%s %+v bit %d: screened flip reached output %d", dt, site, bit, i)
				}
			}
			if got := sdc.Classify(net, g, faulty); got != goldenOut {
				t.Fatalf("%s %+v bit %d: screened flip classified %+v, want golden %+v", dt, site, bit, got, goldenOut)
			}
			if fv := faulty.Acts[li].Data[site.OutputIndex]; same&b != 0 && math.Float64bits(fv) != math.Float64bits(gv) {
				t.Fatalf("%s %+v bit %d: product-identity flip moved the faulted element %v → %v", dt, site, bit, gv, fv)
			}
		}
	})
}
