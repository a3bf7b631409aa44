// Cycle-level simulation of one MAC layer on the array under any row of
// the dataflow table. The simulator exists to validate the abstract fault
// model the campaign path uses: its one register-transfer loop makes the
// operand movement explicit (which operand is resident, which flows east,
// which flows south), so the package's tests can prove that a physically
// addressed fault equals the layers package's per-MAC injection — and, for
// the moving- and resident-operand latches, the campaign's multi-MAC effect
// expansion.
package systolic

import (
	"fmt"
	"math/rand"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Sim executes one CONV/FC layer on the array under a datapath format.
type Sim struct {
	Layer layers.Layer
	DType numeric.Type
	Array Params
	// Flow selects the dataflow; the zero value is weight-stationary.
	Flow Dataflow
}

// NewFlow builds a simulator under a dataflow. The layer must be CONV or
// FC.
func NewFlow(l layers.Layer, dt numeric.Type, par Params, flow Dataflow) *Sim {
	switch l.(type) {
	case *layers.ConvLayer, *layers.FCLayer:
	default:
		panic(fmt.Sprintf("systolic: layer %s is not a MAC layer", l.Name()))
	}
	if flow < 0 || flow >= NumDataflows {
		panic(fmt.Sprintf("systolic: unknown dataflow %d", int(flow)))
	}
	return &Sim{Layer: l, DType: dt, Array: par, Flow: flow}
}

// Geometry returns the tiled schedule for an input shape.
func (s *Sim) Geometry(in tensor.Shape) Geometry {
	geo, ok := LayerGeometry(s.Layer, in, s.Array, s.Flow)
	if !ok {
		panic(fmt.Sprintf("systolic: layer %s is not a MAC layer", s.Layer.Name()))
	}
	return geo
}

// operands resolves the layer's quantized operand accessors: the
// weight of (output column o, chain step k), the activation of
// (chain step k, stream position p), and the per-column bias that enters
// as the initial partial sum.
func (s *Sim) operands(in *tensor.Tensor) (weight func(o, k int) float64, stream func(k, p int) float64, bias func(o int) float64, outShape tensor.Shape) {
	dt := s.DType
	quant := dt.QuantFunc()
	switch l := s.Layer.(type) {
	case *layers.ConvLayer:
		os := l.OutShape(in.Shape)
		khkw := l.KH * l.KW
		weight = func(o, k int) float64 {
			ic, kh, kw := k/khkw, (k/l.KW)%l.KH, k%l.KW
			return quant(l.Weights[l.WeightIndex(o, ic, kh, kw)])
		}
		stream = func(k, p int) float64 {
			ic, kh, kw := k/khkw, (k/l.KW)%l.KH, k%l.KW
			oh, ow := p/os.W, p%os.W
			ih, iw := oh*l.Stride+kh-l.Pad, ow*l.Stride+kw-l.Pad
			if ih < 0 || ih >= in.Shape.H || iw < 0 || iw >= in.Shape.W {
				return 0
			}
			return quant(in.At(ic, ih, iw))
		}
		bias = func(o int) float64 { return quant(l.Bias[o]) }
		return weight, stream, bias, os
	case *layers.FCLayer:
		weight = func(o, k int) float64 { return quant(l.Weights[o*l.In+k]) }
		stream = func(k, p int) float64 { return quant(in.Data[k]) }
		bias = func(o int) float64 { return quant(l.Bias[o]) }
		return weight, stream, bias, l.OutShape(in.Shape)
	}
	panic("systolic: not a MAC layer")
}

// Run executes the layer and returns its output fmap. A non-nil fault is
// injected at its physical coordinate (Run panics on an unresolvable
// address; campaigns draw in site space, tests probe Resolve directly).
//
// One register-transfer loop serves every dataflow. Pass rt·ColTiles + ct
// runs row tile rt of the dataflow's row axis against column tile ct of
// its column axis; at time step t, PE (r, c) — logical (k, o, p) through
// Geometry.logical — reads its resident operand, the east operand in
// flight along row r and the south operand coming down column c at cycle
// t + r + c, folds one MAC into the accumulator of (o, p) and forwards the
// east operand. Every accumulator starts from the quantized bias and folds
// chain steps in ascending k — the layers package's chain order — which
// makes the fault-free output bit-identical to layers.Forward under every
// format and dataflow.
func (s *Sim) Run(in *tensor.Tensor, f *Fault) *tensor.Tensor {
	dt := s.DType
	geo := s.Geometry(in.Shape)
	var site Site
	if f != nil {
		var err error
		site, err = geo.Resolve(f, dt.Width())
		if err != nil {
			panic(err)
		}
	}
	flip := func(v float64) float64 {
		f.Applied = true
		return dt.FlipBits(v, site.Bit, site.Width)
	}
	weight, stream, bias, outShape := s.operands(in)
	out := tensor.New(outShape)
	// acc[o·P + p] is the partial sum of output (o, p) — for CONV exactly
	// the (oc, oh, ow) flat activation index, for FC just o.
	acc := out.Data
	for o := 0; o < geo.Outs; o++ {
		b := bias(o)
		for p := 0; p < geo.P; p++ {
			acc[o*geo.P+p] = b
		}
	}
	fl, mac := flows[s.Flow], dt.MACFunc()
	rowExt, colExt, timeExt := geo.axes()
	for pass := 0; pass < geo.Passes; pass++ {
		rt, ct := pass/geo.ColTiles, pass%geo.ColTiles
		rows := min(rowExt-rt*geo.Rows, geo.Rows)
		cols := min(colExt-ct*geo.Cols, geo.Cols)
		for t := 0; t < timeExt; t++ {
			for r := 0; r < rows; r++ {
				// piped: an upstream pipe register of row r forwarded a
				// corrupted east operand.
				piped := false
				for c := 0; c < cols; c++ {
					k, o, p := geo.logical(rt*geo.Rows+r, ct*geo.Cols+c, t)
					var op [LatchPsum]float64
					op[LatchWeight], op[LatchAct] = weight(o, k), stream(k, p)
					if piped {
						op[fl.east] = flip(op[fl.east])
					}
					// struck: the fault's PE at or after its cycle; now: at it.
					struck := f != nil && f.Pass == pass && f.Row == r && f.Col == c && t+r+c >= f.Cycle
					now := struck && t+r+c == f.Cycle
					if struck && f.Latch < LatchPsum && (now || fl.persists(f.Latch)) {
						op[f.Latch] = flip(op[f.Latch])
					}
					ai := o*geo.P + p
					acc[ai] = mac(acc[ai], op[LatchWeight], op[LatchAct])
					if now && f.Latch == LatchPsum {
						acc[ai] = flip(acc[ai])
					}
					piped = piped || now && f.Latch == LatchPipe
				}
			}
		}
	}
	return out
}

// RandomFault draws a uniformly random in-range physical fault for an
// input shape: uniform over the occupied (chain step, output column,
// stream position, latch, bit) sites, encoded to its physical address.
func (s *Sim) RandomFault(rng *rand.Rand, in tensor.Shape) *Fault {
	geo := s.Geometry(in)
	f := geo.Encode(Site{
		K:     rng.Intn(geo.K),
		Out:   rng.Intn(geo.Outs),
		P:     rng.Intn(geo.P),
		Latch: Latch(rng.Intn(int(NumLatches))),
		Bit:   rng.Intn(s.DType.Width()),
		Width: 1,
	})
	return &f
}

// AbstractFault translates a physical fault into the layers package's
// per-MAC descriptor when the fault corrupts exactly one MAC under the
// simulator's dataflow: the dataflow's single-read latches always, its
// resident latch when struck at the last time step (a single remaining
// read), and pipeline faults with exactly one downstream consumer.
// comparable is false for multi-MAC or architecturally masked faults —
// those are validated against the campaign's effect expansion instead.
func (s *Sim) AbstractFault(f *Fault, in tensor.Shape) (layerFault layers.Fault, comparable bool) {
	geo := s.Geometry(in)
	site, err := geo.Resolve(f, s.DType.Width())
	if err != nil || site.Width != 1 {
		return layers.Fault{}, false
	}
	return geo.abstract(site)
}
