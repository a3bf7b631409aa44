package layers

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// markScan is the window scan scanChanged replaced, kept as its oracle: mark
// the changed inputs, then walk each spatial position's whole InC·KH·KW
// window and record every tap that reads a marked input.
func (l *ConvLayer) markScan(ctx *Context, in *tensor.Tensor, os tensor.Shape, spatial, changed []int) (steps []int, xs []float64, offs []int) {
	mark := make([]bool, len(in.Data))
	for _, idx := range changed {
		mark[idx] = true
	}
	quant := ctx.DType.QuantFunc()
	inH, inW := in.Shape.H, in.Shape.W
	offs = []int{0}
	for _, si := range spatial {
		oh, ow := si/os.W, si%os.W
		step := 0
		for ic := 0; ic < l.InC; ic++ {
			for kh := 0; kh < l.KH; kh++ {
				ih := oh*l.Stride + kh - l.Pad
				for kw := 0; kw < l.KW; kw++ {
					iw := ow*l.Stride + kw - l.Pad
					if ih >= 0 && ih < inH && iw >= 0 && iw < inW && mark[(ic*inH+ih)*inW+iw] {
						idx := (ic*inH+ih)*inW + iw
						steps = append(steps, step)
						if ctx.QIn != nil {
							xs = append(xs, ctx.QIn[idx])
						} else {
							xs = append(xs, quant(in.Data[idx]))
						}
					}
					step++
				}
			}
		}
		offs = append(offs, len(steps))
	}
	return steps, xs, offs
}

// coveredPositions lists, ascending, every output position whose window
// reads at least one changed input — by brute force over the windows.
func (l *ConvLayer) coveredPositions(in *tensor.Tensor, os tensor.Shape, changed []int) []int {
	var spatial []int
	for si := 0; si < os.H*os.W; si++ {
		oh, ow := si/os.W, si%os.W
		for _, idx := range changed {
			_, ih, iw := in.Coords(idx)
			kh, kw := ih-oh*l.Stride+l.Pad, iw-ow*l.Stride+l.Pad
			if kh >= 0 && kh < l.KH && kw >= 0 && kw < l.KW {
				spatial = append(spatial, si)
				break
			}
		}
	}
	return spatial
}

// TestScanChangedMatchesMarkScan holds the changed-driven CONV tap scan to
// the window scan on random changed sets over synthetic layers — kernel 1–5,
// stride 1–3, pad 0–2, so windows that hang over the padding border and
// positions whose window is mostly padding occur — with ascending and
// shuffled changed sets, with and without a QIn, on one reused scratch.
// The caller's changed slice must come back untouched.
func TestScanChangedMatchesMarkScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sc := new(ChainScratch)
	dt := numeric.Fx16RB10
	for trial := 0; trial < 3000; trial++ {
		k, stride, pad := 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(3)
		inC := 1 + rng.Intn(3)
		h, w := max(1, k-2*pad)+rng.Intn(7), max(1, k-2*pad)+rng.Intn(7)
		l := NewConv("c", inC, 2, k, stride, pad)
		in := tensor.New(tensor.Shape{C: inC, H: h, W: w})
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64() * 4
		}
		os := l.OutShape(in.Shape)
		ctx := &Context{DType: dt}
		if trial%2 == 0 {
			ctx.QIn = quantizeSlice(dt, in.Data)
		}
		changed := rng.Perm(len(in.Data))[:1+rng.Intn(len(in.Data))]
		if trial%3 != 0 {
			sort.Ints(changed)
		}
		keep := slices.Clone(changed)

		spatial := l.coveredPositions(in, os, changed)
		wantSteps, wantXs, wantOffs := l.markScan(ctx, in, os, spatial, changed)
		l.scanChanged(ctx, sc, in, os, spatial, changed)
		if !slices.Equal(changed, keep) {
			t.Fatalf("trial %d: scanChanged reordered the caller's changed set: %v, was %v", trial, changed, keep)
		}
		if !slices.Equal(sc.offs, wantOffs) {
			t.Fatalf("trial %d (%v k%d s%d p%d): offs %v, window scan %v", trial, in.Shape, k, stride, pad, sc.offs, wantOffs)
		}
		if !slices.Equal(sc.steps, wantSteps) {
			t.Fatalf("trial %d (%v k%d s%d p%d): steps %v, window scan %v", trial, in.Shape, k, stride, pad, sc.steps, wantSteps)
		}
		if !slices.EqualFunc(sc.xs, wantXs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("trial %d (%v k%d s%d p%d): xs %v, window scan %v", trial, in.Shape, k, stride, pad, sc.xs, wantXs)
		}
	}
}
