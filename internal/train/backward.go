package train

import (
	"math"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// Per-layer backward passes. Each takes the layer's forward input (and
// output where needed), the gradient w.r.t. the layer output, and returns
// the gradient w.r.t. the layer input, accumulating parameter gradients
// in place.

// backwardFC: out[o] = b[o] + Σ_i W[o][i]·in[i].
func backwardFC(l *layers.FCLayer, in *tensor.Tensor, gout, gw, gb []float64) []float64 {
	gin := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		go_ := gout[o]
		gb[o] += go_
		row := l.Weights[o*l.In : (o+1)*l.In]
		grow := gw[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			grow[i] += float64(go_ * in.Data[i])
			gin[i] += float64(go_ * row[i])
		}
	}
	return gin
}

// backwardConv mirrors ConvLayer.Forward's loop structure exactly.
func backwardConv(l *layers.ConvLayer, in *tensor.Tensor, gout, gw, gb []float64) []float64 {
	os := l.OutShape(in.Shape)
	gin := make([]float64, len(in.Data))
	inH, inW := in.Shape.H, in.Shape.W

	oi := 0
	for oc := 0; oc < l.OutC; oc++ {
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				g := gout[oi]
				oi++
				if g == 0 {
					continue
				}
				gb[oc] += g
				for ic := 0; ic < l.InC; ic++ {
					inBase := ic * inH * inW
					for kh := 0; kh < l.KH; kh++ {
						ih := oh*l.Stride + kh - l.Pad
						if ih < 0 || ih >= inH {
							continue
						}
						rowBase := inBase + ih*inW
						for kw := 0; kw < l.KW; kw++ {
							iw := ow*l.Stride + kw - l.Pad
							if iw < 0 || iw >= inW {
								continue
							}
							wi := l.WeightIndex(oc, ic, kh, kw)
							gw[wi] += float64(g * in.Data[rowBase+iw])
							gin[rowBase+iw] += float64(g * l.Weights[wi])
						}
					}
				}
			}
		}
	}
	return gin
}

// backwardReLU gates gradients by the forward output's sign.
func backwardReLU(out *tensor.Tensor, gout []float64) []float64 {
	gin := make([]float64, len(gout))
	for i, v := range out.Data {
		if v > 0 {
			gin[i] = gout[i]
		}
	}
	return gin
}

// backwardPool routes each output gradient to the window's argmax
// (recomputed from the forward input; ties go to the first maximum, the
// same element the forward max found).
func backwardPool(l *layers.PoolLayer, in, out *tensor.Tensor, gout []float64) []float64 {
	gin := make([]float64, len(in.Data))
	os := out.Shape
	oi := 0
	for c := 0; c < os.C; c++ {
		for oh := 0; oh < os.H; oh++ {
			for ow := 0; ow < os.W; ow++ {
				g := gout[oi]
				oi++
				if g == 0 {
					continue
				}
				best := math.Inf(-1)
				bi := -1
				for kh := 0; kh < l.K; kh++ {
					ih := oh*l.Stride + kh
					if ih >= in.Shape.H {
						break
					}
					for kw := 0; kw < l.K; kw++ {
						iw := ow*l.Stride + kw
						if iw >= in.Shape.W {
							break
						}
						if v := in.At(c, ih, iw); v > best {
							best = v
							bi = in.Index(c, ih, iw)
						}
					}
				}
				if bi >= 0 {
					gin[bi] += g
				}
			}
		}
	}
	return gin
}

// backwardLRN differentiates b_i = a_i · s_i^{-β} with
// s_i = k + (α/n)·Σ_{j∈w(i)} a_j²:
//
//	∂L/∂a_i = g_i·s_i^{-β} − 2β(α/n)·a_i·Σ_{j: i∈w(j)} g_j·a_j·s_j^{-β-1}
//
// where w(j) is the channel window centred on j (i ∈ w(j) ⇔ j ∈ w(i)).
func backwardLRN(l *layers.LRNLayer, in *tensor.Tensor, gout []float64) []float64 {
	gin := make([]float64, len(in.Data))
	half := l.N / 2
	C, H, W := in.Shape.C, in.Shape.H, in.Shape.W
	coef := 2 * l.Beta * l.Alpha / float64(l.N)

	for h := 0; h < H; h++ {
		for w := 0; w < W; w++ {
			// Precompute s_j and the shared term g_j·a_j·s_j^{-β-1} per
			// channel at this pixel.
			s := make([]float64, C)
			shared := make([]float64, C)
			for c := 0; c < C; c++ {
				lo, hi := c-half, c+half
				if lo < 0 {
					lo = 0
				}
				if hi >= C {
					hi = C - 1
				}
				var ss float64
				for cc := lo; cc <= hi; cc++ {
					v := in.At(cc, h, w)
					ss += float64(v * v)
				}
				s[c] = l.K + float64(l.Alpha/float64(l.N)*ss)
				idx := in.Index(c, h, w)
				shared[c] = gout[idx] * in.Data[idx] * math.Pow(s[c], -l.Beta-1)
			}
			for c := 0; c < C; c++ {
				idx := in.Index(c, h, w)
				g := float64(gout[idx] * math.Pow(s[c], -l.Beta))
				lo, hi := c-half, c+half
				if lo < 0 {
					lo = 0
				}
				if hi >= C {
					hi = C - 1
				}
				var cross float64
				for j := lo; j <= hi; j++ {
					cross += shared[j]
				}
				gin[idx] = g - float64(coef*in.Data[idx]*cross)
			}
		}
	}
	return gin
}
