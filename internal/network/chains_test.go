package network_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// builtNet is a paper network the way a campaign prepares it.
func builtNet(name string) *network.Network {
	n := models.Build(name)
	n.EnableQuantCache()
	return n
}

// unchained is golden's tensors under a fresh Execution: same activations,
// no chain state yet.
func unchained(golden *network.Execution) *network.Execution {
	return &network.Execution{Input: golden.Input, Acts: golden.Acts}
}

// walkRandomFault runs one random fault of one of the three fault-model
// shapes — a single MAC (ForwardFrom), a Filter-SRAM-like front over one
// output channel (ForwardFront), a corrupted buffer word (ForwardFromInput) —
// through n's delta path against golden and checks it against the matching
// dense oracle: every activation bit for bit, and Masked exactly when the
// oracle lands back on golden inside the delta-walkable layers.
func walkRandomFault(n *network.Network, dt numeric.Type, golden *network.Execution, rng *rand.Rand) error {
	macs := n.MACLayerIndices()
	li := macs[rng.Intn(len(macs))]
	act, in := golden.Acts[li], golden.LayerInput(li)
	chain := n.Layers[li].(interface{ MACChainLen() int }).MACChainLen()
	bit := rng.Intn(dt.Width())
	if rng.Intn(2) == 0 {
		bit = dt.Width() - 1 - rng.Intn(4) // high bits: the faults that propagate
	}

	var got, want *network.Execution
	kind := rng.Intn(3)
	switch kind {
	case 0:
		f := layers.Fault{OutputIndex: rng.Intn(len(act.Data)), MACStep: rng.Intn(chain),
			Target: layers.Target(rng.Intn(int(layers.NumTargets))), Bit: bit}
		dense := f
		got = n.ForwardFrom(dt, golden, li, &f)
		want = n.ForwardFromDense(dt, golden, li, &dense)
	case 1:
		plane := act.Shape.H * act.Shape.W
		oc, step := rng.Intn(act.Shape.C), rng.Intn(chain)
		front := make([]layers.Fault, plane)
		for p := range front {
			front[p] = layers.Fault{OutputIndex: oc*plane + p, MACStep: step, Target: layers.TargetWeight, Bit: bit}
		}
		got = n.ForwardFront(dt, golden, li, front)
		want = n.ForwardWithActDense(dt, golden, li, got.Acts[li])
	case 2:
		word := rng.Intn(len(in.Data))
		corrupted := in.Clone()
		corrupted.Data[word] = dt.FlipBits(dt.Quantize(in.Data[word]), bit, 1)
		got = n.ForwardFromInput(dt, golden, li, corrupted, []int{word})
		want = n.ForwardFromInputDense(dt, golden, li, corrupted)
	}

	for l := li; l < len(want.Acts); l++ {
		if !tensor.BitIdentical(got.Acts[l], want.Acts[l]) {
			return fmt.Errorf("%s/%s kind %d at layer %d: delta result differs from the dense oracle at layer %d", n.Name, dt, kind, li, l)
		}
	}
	masked := false
	for l := li; l < len(want.Acts); l++ {
		if _, ok := n.Layers[l].(layers.DeltaForwarder); !ok {
			break
		}
		if tensor.BitIdentical(want.Acts[l], golden.Acts[l]) {
			masked = true
			break
		}
	}
	if got.Masked != masked {
		return fmt.Errorf("%s/%s kind %d at layer %d: Masked = %v, the dense oracle says %v", n.Name, dt, kind, li, got.Masked, masked)
	}
	return nil
}

// TestConcurrentWalkersShareGoldenChains: the golden chains are state of
// the golden execution, filled lazily by whichever walker first needs a
// row. Eight goroutines start on one cold execution and run random faults
// of all three shapes; each must match its dense oracle. Under -race this
// is the proof that filled rows are published before they are read and
// that no walker scratch is shared.
func TestConcurrentWalkersShareGoldenChains(t *testing.T) {
	for _, name := range []string{"AlexNet", "ConvNet"} {
		n := builtNet(name)
		for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx16RB10} {
			golden := n.Forward(dt, models.InputFor(name, 0))
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 8; i++ {
						if err := walkRandomFault(n, dt, golden, rng); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(g + 1))
			}
			wg.Wait()
			if network.ChainBytes(golden) == 0 {
				t.Errorf("%s/%s: 64 walks attached no chain state to the golden execution", name, dt)
			}
		}
	}
}

// TestGoldenChainsAreKeyedByLayerIndex: every campaign builds its own
// Network, and all of them resolve one golden execution through the
// process's golden cache. Two separately built AlexNets walking one
// execution must both match the dense oracle, and the execution must hold
// the chains once — as many bytes as when a single network did every walk —
// not once per Network.
func TestGoldenChainsAreKeyedByLayerIndex(t *testing.T) {
	dt := numeric.Float16
	a, b := builtNet("AlexNet"), builtNet("AlexNet")
	golden := a.Forward(dt, models.InputFor("AlexNet", 1))

	shared, single := unchained(golden), unchained(golden)
	rngShared, rngSingle := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		n := a
		if i%2 == 1 {
			n = b
		}
		if err := walkRandomFault(n, dt, shared, rngShared); err != nil {
			t.Fatal(err)
		}
		if err := walkRandomFault(a, dt, single, rngSingle); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := network.ChainBytes(shared), network.ChainBytes(single); got != want || want == 0 {
		t.Errorf("two networks sharing one execution account %d chain bytes, one network accounts %d", got, want)
	}
}

// TestGoldenChainFillRefusesForeignWeights: chains outlive the walk that
// filled them and serve every network that resolves the execution, so a
// network whose weights did not produce the execution must fail at the
// first fill — naming the layer — rather than leave rows that every later
// replay would trust.
func TestGoldenChainFillRefusesForeignWeights(t *testing.T) {
	dt := numeric.Fx16RB10
	golden := builtNet("ConvNet").Forward(dt, models.InputFor("ConvNet", 0))

	foreign := models.Build("ConvNet")
	macs := foreign.MACLayerIndices()
	next := macs[1]
	conv2 := foreign.Layers[next].(*layers.ConvLayer)
	for i := range conv2.Weights {
		conv2.Weights[i] = -conv2.Weights[i]
	}
	foreign.EnableQuantCache()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a network with other weights filled chains of the execution without complaint")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("layer %d element", next)) {
			t.Fatalf("panic does not name the layer and element: %s", msg)
		}
	}()
	// A high accumulator bit flipped in conv1 reaches conv2, whose chains the
	// walk then fills from the foreign weights.
	act := golden.Acts[macs[0]]
	for oi := range act.Data {
		if act.Data[oi] > 0 {
			f := layers.Fault{OutputIndex: oi, MACStep: 26, Target: layers.TargetAccum, Bit: dt.Width() - 2}
			foreign.ForwardFrom(dt, golden, macs[0], &f)
		}
	}
}
