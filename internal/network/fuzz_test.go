package network

import (
	"math/rand"
	"testing"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// FuzzDeltaPropagation is the bit-exactness property of the one changed-set
// propagation core: for an arbitrary (network, format, start layer, changed
// set) the delta entry points ForwardFromInput and ForwardWithAct must
// reproduce their dense oracles bit-for-bit on every activation tensor, and
// a Masked result must alias golden from the masking point to the output.
// The fuzzed dimensions are the ones the fault models actually vary: the
// start layer (including layer 0, whose golden input is raw data rather
// than a pre-quantized view), the shape of the set (one word, a whole
// channel, a sparse scatter, a dense scatter, nothing), the flipped bit
// span (on FLOAT16 the exponent spans produce Inf and NaN operands), the
// dense-fallback cutoff, and the hygiene of the index list a caller hands
// in (shuffled, with duplicates, padded with indices that did not change).
// Every case is evaluated twice against the same golden tensors under a
// fresh Execution — cold, when the walk fills the golden chains it replays,
// then warm, when it only reads them — and both must equal the oracle.
func FuzzDeltaPropagation(f *testing.F) {
	nets := []*Network{tinyNet(), lrnNet(true, 7), lrnNet(false, 8), deepNet(19)}
	cached := deepNet(23)
	cached.EnableQuantCache()
	nets = append(nets, cached)
	cutoffs := []float64{0, 1e-9, 1}

	type goldenKey struct {
		net int
		dt  numeric.Type
	}
	goldens := make(map[goldenKey]*Execution)

	// seed, net, dtype, layer, withAct, set shape, bit, width, cutoff, messy
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(3), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(2), uint8(0), false, uint8(1), uint8(10), uint8(4), uint8(0), true) // FLOAT16 exponent span at the raw input
	f.Add(int64(3), uint8(1), uint8(2), uint8(4), true, uint8(1), uint8(11), uint8(3), uint8(2), true)  // whole conv2 channel to Inf/NaN
	f.Add(int64(4), uint8(3), uint8(5), uint8(3), false, uint8(2), uint8(14), uint8(1), uint8(1), true) // fixed point, always-dense cutoff
	f.Add(int64(5), uint8(3), uint8(3), uint8(0), true, uint8(3), uint8(30), uint8(2), uint8(2), false) // dense scatter, never-dense cutoff
	f.Add(int64(6), uint8(4), uint8(4), uint8(7), true, uint8(0), uint8(9), uint8(0), uint8(0), true)   // FC output word, cached params
	f.Add(int64(7), uint8(2), uint8(1), uint8(6), false, uint8(2), uint8(20), uint8(0), uint8(0), false)
	f.Add(int64(8), uint8(1), uint8(2), uint8(7), true, uint8(4), uint8(0), uint8(0), uint8(0), true) // empty set at the softmax

	f.Fuzz(func(t *testing.T, seed int64, netSel, dtSel, layerSel uint8, withAct bool, shape, bit, width, cutoffSel uint8, messy bool) {
		ni := int(netSel) % len(nets)
		n := nets[ni]
		dt := numeric.Types[int(dtSel)%len(numeric.Types)]
		k := goldenKey{ni, dt}
		golden := goldens[k]
		if golden == nil {
			golden = n.Forward(dt, randInput(n.InShape, 42))
			goldens[k] = golden
		}
		n.setDenseCutoff(cutoffs[int(cutoffSel)%len(cutoffs)])
		rng := rand.New(rand.NewSource(seed))
		li := int(layerSel) % len(n.Layers)

		// The tensor the fault corrupts: layer li's output, or its input.
		src := golden.Acts[li]
		if !withAct {
			src = golden.Input
			if li > 0 {
				src = golden.Acts[li-1]
			}
		}
		var set []int
		switch shape % 5 {
		case 0: // one word
			set = []int{rng.Intn(len(src.Data))}
		case 1: // a whole channel
			c := rng.Intn(src.Shape.C)
			for h := 0; h < src.Shape.H; h++ {
				for w := 0; w < src.Shape.W; w++ {
					set = append(set, src.Index(c, h, w))
				}
			}
		case 2, 3: // sparse or dense scatter
			p := 0.05
			if shape%5 == 3 {
				p = 0.7
			}
			for i := range src.Data {
				if rng.Float64() < p {
					set = append(set, i)
				}
			}
		}
		lo := int(bit) % dt.Width()
		span := 1 + int(width)%min(5, dt.Width()-lo)
		corrupted := src.Clone()
		for _, i := range set {
			corrupted.Data[i] = dt.FlipBits(src.Data[i], lo, span)
		}
		changed := append([]int(nil), set...)
		if messy && len(src.Data) > 0 {
			for i := 0; i < 3; i++ {
				changed = append(changed, rng.Intn(len(src.Data))) // may or may not have changed
			}
			if len(set) > 0 {
				changed = append(changed, set[rng.Intn(len(set))], set[0])
			}
			rng.Shuffle(len(changed), func(i, j int) { changed[i], changed[j] = changed[j], changed[i] })
		}
		handed := append([]int(nil), changed...)

		var want *Execution
		if withAct {
			want = n.ForwardWithActDense(dt, golden, li, corrupted)
		} else {
			want = n.ForwardFromInputDense(dt, golden, li, corrupted)
		}
		fresh := &Execution{Input: golden.Input, Acts: golden.Acts}
		for _, pass := range []string{"cold", "warm"} {
			var got *Execution
			if withAct {
				got = n.ForwardWithAct(dt, fresh, li, corrupted, changed)
			} else {
				got = n.ForwardFromInput(dt, fresh, li, corrupted, changed)
			}

			for i := range handed {
				if changed[i] != handed[i] {
					t.Fatal("the caller's changed slice was modified")
				}
			}
			for l := range want.Acts {
				if !tensor.BitIdentical(got.Acts[l], want.Acts[l]) {
					t.Fatalf("%s/%s layer %d (withAct=%v, %d changed, %s chains): delta result differs from the dense oracle at layer %d",
						n.Name, dt, li, withAct, len(set), pass, l)
				}
			}
			if got.Masked {
				last := len(got.Acts) - 1
				if got.Acts[last] != golden.Acts[last] {
					t.Fatal("masked execution does not alias the golden output tensor")
				}
				// From the faulted layer on, once a tensor aliases golden every
				// later one does.
				aliased := false
				for l := li; l < len(got.Acts); l++ {
					if got.Acts[l] == golden.Acts[l] {
						aliased = true
					} else if aliased {
						t.Fatalf("masked execution stops aliasing golden at layer %d", l)
					}
				}
			}
		}
	})
}
