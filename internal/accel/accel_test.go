package accel

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

func testNet() *network.Network {
	conv := layers.NewConv("conv1", 1, 2, 3, 1, 1) // out 2x4x4, chain 9, MACs 288
	fc := layers.NewFC("fc2", 2*4*4, 5)            // chain 32, MACs 160
	n := &network.Network{
		Name:    "t",
		InShape: tensor.Shape{C: 1, H: 4, W: 4},
		Classes: 5,
		Layers: []layers.Layer{
			conv,
			layers.NewReLU("relu1"),
			fc,
		},
	}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func TestDatapathLatchBits(t *testing.T) {
	d := Datapath{NumPEs: 1344, DType: numeric.Fx16RB10}
	if got := d.LatchBitsPerPE(); got != 64 {
		t.Errorf("LatchBitsPerPE = %d, want 64 (4 latches x 16 bits)", got)
	}
	if got := d.TotalLatchBits(); got != 1344*64 {
		t.Errorf("TotalLatchBits = %d", got)
	}
	d32 := Datapath{NumPEs: 10, DType: numeric.Float}
	if got := d32.TotalLatchBits(); got != 10*4*32 {
		t.Errorf("TotalLatchBits(FLOAT) = %d", got)
	}
}

func TestProfileGeometry(t *testing.T) {
	p := NewProfile(testNet(), numeric.Float16)
	if p.NumMACLayers() != 2 {
		t.Fatalf("NumMACLayers = %d, want 2", p.NumMACLayers())
	}
	if got := p.macs[0]; got != 288 {
		t.Errorf("conv MACs = %d, want 288", got)
	}
	if got := p.macs[1]; got != 160 {
		t.Errorf("fc MACs = %d, want 160", got)
	}
	if got := p.total; got != 448 {
		t.Errorf("total MACs = %d, want 448", got)
	}
}

func TestRandomSiteValidCoordinates(t *testing.T) {
	net := testNet()
	p := NewProfile(net, numeric.Float16)
	rng := rand.New(rand.NewSource(1))
	sawConv, sawFC := false, false
	for i := 0; i < 2000; i++ {
		s := p.RandomSite(rng)
		switch s.Layer {
		case 0:
			sawConv = true
			if s.Fault.OutputIndex < 0 || s.Fault.OutputIndex >= 32 {
				t.Fatalf("conv output index %d out of range", s.Fault.OutputIndex)
			}
			if s.Fault.MACStep < 0 || s.Fault.MACStep >= 9 {
				t.Fatalf("conv MAC step %d out of range", s.Fault.MACStep)
			}
		case 2:
			sawFC = true
			if s.Fault.OutputIndex < 0 || s.Fault.OutputIndex >= 5 {
				t.Fatalf("fc output index %d out of range", s.Fault.OutputIndex)
			}
			if s.Fault.MACStep < 0 || s.Fault.MACStep >= 32 {
				t.Fatalf("fc MAC step %d out of range", s.Fault.MACStep)
			}
		default:
			t.Fatalf("site in non-MAC layer %d", s.Layer)
		}
		if s.Fault.Bit < 0 || s.Fault.Bit >= 16 {
			t.Fatalf("bit %d out of range for FLOAT16", s.Fault.Bit)
		}
		if s.Fault.Target < 0 || s.Fault.Target >= layers.NumTargets {
			t.Fatalf("target %v out of range", s.Fault.Target)
		}
	}
	if !sawConv || !sawFC {
		t.Error("random sites did not cover both MAC layers")
	}
}

func TestRandomSiteWeightedByMACs(t *testing.T) {
	// Conv has 288/448 = 64% of the MACs; the site distribution must
	// follow.
	p := NewProfile(testNet(), numeric.Float16)
	rng := rand.New(rand.NewSource(2))
	conv := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.RandomSite(rng).Layer == 0 {
			conv++
		}
	}
	frac := float64(conv) / n
	if frac < 0.61 || frac > 0.68 {
		t.Errorf("conv site fraction = %v, want ~0.643", frac)
	}
}

func TestRandomSiteInBlock(t *testing.T) {
	p := NewProfile(testNet(), numeric.Float)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if s := p.Draw(rng, 1, -1, 1); s.Layer != 2 {
			t.Fatalf("block-1 site in layer %d", s.Layer)
		}
	}
}

func TestRandomSiteWithBit(t *testing.T) {
	p := NewProfile(testNet(), numeric.Fx16RB10)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		if s := p.Draw(rng, -1, 14, 1); s.Fault.Bit != 14 {
			t.Fatalf("bit = %d, want 14", s.Fault.Bit)
		}
	}
}

func TestBlockOfSite(t *testing.T) {
	p := NewProfile(testNet(), numeric.Float16)
	if got := p.BlockOfSite(Site{Layer: 0}); got != 0 {
		t.Errorf("BlockOfSite(conv) = %d", got)
	}
	if got := p.BlockOfSite(Site{Layer: 2}); got != 1 {
		t.Errorf("BlockOfSite(fc) = %d", got)
	}
}

func TestBlockOfSitePanicsOnNonMAC(t *testing.T) {
	p := NewProfile(testNet(), numeric.Float16)
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-MAC layer site")
		}
	}()
	p.BlockOfSite(Site{Layer: 1})
}

func TestProfilesForAllModels(t *testing.T) {
	// Every Table 2 model must expose a valid site geometry, with block
	// counts matching the paper (ConvNet 5, AlexNet/CaffeNet 8, NiN 12).
	want := map[string]int{"ConvNet": 5, "AlexNet": 8, "CaffeNet": 8, "NiN": 12}
	for _, name := range models.Names {
		p := NewProfile(models.Build(name), numeric.Float16)
		if got := p.NumMACLayers(); got != want[name] {
			t.Errorf("%s: %d MAC layers, want %d", name, got, want[name])
		}
		if p.total <= 0 {
			t.Errorf("%s: no MACs", name)
		}
	}
}

// drawShapes are the five ways a campaign draws a datapath site: uniform,
// multi-bit upset, forced bit, forced block, forced (block, bit). Draw i
// forces block i mod blocks, bit i mod width, and flips 2 + i mod 3 bits.
var drawShapes = []struct {
	name string
	draw func(p *Profile, rng *rand.Rand, i int) Site
}{
	{"uniform", func(p *Profile, rng *rand.Rand, i int) Site { return p.RandomSite(rng) }},
	{"mbu", func(p *Profile, rng *rand.Rand, i int) Site { return p.Draw(rng, -1, -1, 2+i%3) }},
	{"bit", func(p *Profile, rng *rand.Rand, i int) Site { return p.Draw(rng, -1, i%p.dt.Width(), 1) }},
	{"block", func(p *Profile, rng *rand.Rand, i int) Site { return p.Draw(rng, i%p.NumMACLayers(), -1, 1) }},
	{"block_bit", func(p *Profile, rng *rand.Rand, i int) Site {
		return p.Draw(rng, i%p.NumMACLayers(), i%p.dt.Width(), 1)
	}},
}

// drawSHA256 pins the SHA-256 of 5,000 consecutive draws of each shape,
// keyed network/format/shape.
var drawSHA256 = map[string]string{
	"ConvNet/FLOAT16/uniform":    "acedfab08c46f6169c170d0afc465b99ff823f1b0e024621a806396a3c58a4bf",
	"ConvNet/FLOAT16/mbu":        "4e30db3d6bd0e4cf38e2884c972c2287856a20da5680339693380ccb562d04f1",
	"ConvNet/FLOAT16/bit":        "7d01c13f024831c27840ee8975e5126c38d98cd109920318b96cab7941d9a60b",
	"ConvNet/FLOAT16/block":      "4532f303fc4b380033ad0e01407aee88e2ad8132192b1b8c26709c0d820ab26b",
	"ConvNet/FLOAT16/block_bit":  "3b54e219dd7c16e4a9da71eb5d1aa2131b836ee72d9482f597d66ad741bf9702",
	"ConvNet/16b_rb10/uniform":   "acedfab08c46f6169c170d0afc465b99ff823f1b0e024621a806396a3c58a4bf",
	"ConvNet/16b_rb10/mbu":       "4e30db3d6bd0e4cf38e2884c972c2287856a20da5680339693380ccb562d04f1",
	"ConvNet/16b_rb10/bit":       "7d01c13f024831c27840ee8975e5126c38d98cd109920318b96cab7941d9a60b",
	"ConvNet/16b_rb10/block":     "4532f303fc4b380033ad0e01407aee88e2ad8132192b1b8c26709c0d820ab26b",
	"ConvNet/16b_rb10/block_bit": "3b54e219dd7c16e4a9da71eb5d1aa2131b836ee72d9482f597d66ad741bf9702",
	"AlexNet/FLOAT16/uniform":    "ed4b6b0cf0cd45cc1a8be0e23d117aa09dd6009ef4f16f9949cbded1cb06d9be",
	"AlexNet/FLOAT16/mbu":        "d0fc9ae570ce851eb2d751938de946d74c1ef85339c3561988d99a3c43e5a49f",
	"AlexNet/FLOAT16/bit":        "fe108537943b02c8cac201565ef9925120d74701229ae173bb0350eb1c0fcbc0",
	"AlexNet/FLOAT16/block":      "8830017fcb55b78819c2ccd13a0da4b3963e47418eb46b256ee9d0a8c4e3c838",
	"AlexNet/FLOAT16/block_bit":  "fd5aca28eef0a1bee600ba4d6455e9cb3565547e7cfd2ffb512b3c8f1d05a1a4",
	"AlexNet/16b_rb10/uniform":   "ed4b6b0cf0cd45cc1a8be0e23d117aa09dd6009ef4f16f9949cbded1cb06d9be",
	"AlexNet/16b_rb10/mbu":       "d0fc9ae570ce851eb2d751938de946d74c1ef85339c3561988d99a3c43e5a49f",
	"AlexNet/16b_rb10/bit":       "fe108537943b02c8cac201565ef9925120d74701229ae173bb0350eb1c0fcbc0",
	"AlexNet/16b_rb10/block":     "8830017fcb55b78819c2ccd13a0da4b3963e47418eb46b256ee9d0a8c4e3c838",
	"AlexNet/16b_rb10/block_bit": "fd5aca28eef0a1bee600ba4d6455e9cb3565547e7cfd2ffb512b3c8f1d05a1a4",
}

// TestDrawPins: every draw shape keeps its PRNG consumption order and its
// sites, on a small and an ImageNet-class network, at two word widths.
func TestDrawPins(t *testing.T) {
	for _, name := range []string{"ConvNet", "AlexNet"} {
		net := models.Build(name)
		for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx16RB10} {
			p := NewProfile(net, dt)
			for _, shape := range drawShapes {
				rng := rand.New(rand.NewSource(17))
				h := sha256.New()
				for i := 0; i < 5000; i++ {
					s := shape.draw(p, rng, i)
					fmt.Fprintf(h, "%d %d %d %d %d %d\n", s.Layer, s.Fault.OutputIndex, s.Fault.MACStep, s.Fault.Target, s.Fault.Bit, s.Fault.Width)
				}
				key := fmt.Sprintf("%s/%s/%s", name, dt, shape.name)
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != drawSHA256[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}

func TestSiteString(t *testing.T) {
	s := Site{Layer: 2, Fault: layers.Fault{OutputIndex: 7, MACStep: 3, Target: layers.TargetProduct, Bit: 14}}
	if got := s.String(); got != "layer=2 out=7 step=3 product-latch bit=14" {
		t.Errorf("String = %q", got)
	}
}
