// Dataflow strategies. The array model is parameterized by which operand
// stays resident in the PEs: the three classic stationary dataflows share
// one logical coordinate system — chain step K, output column Out, stream
// position P — and one physical addressing scheme (pass, cycle, PE row,
// PE col, latch, bit). A dataflow chooses the mapping between the two:
// which logical axes tile onto the physical row/column axes, which axis
// streams through time, and therefore which latches hold resident
// (persistent) versus moving (single-read or forwarded) operands. The
// per-latch corruption fronts below are everything the campaign path,
// the cycle-level simulator and the analytical pre-screen need; all other
// machinery (site sampling, stratification, MBU spans, shard merge) is
// dataflow-independent.
//
//	dataflow  resident  rows↔  cols↔  time↔  east-flowing  south-flowing
//	weight    weight    K      Out    P      activation    partial sum
//	output    psum      P      Out    K      activation    weight
//	input     act       K      P      Out    weight        partial sum
//
// Per-latch corruption fronts (effects on the logical MAC grid):
//
//	latch   weight-stationary        output-stationary       input-stationary
//	weight  resident: step K of      one read: step K of     one read: step K of
//	        (Out, p′) ∀ p′ ≥ P       (Out, P)                (Out, P)
//	act     one read: step K of      one read: step K of     resident: step K of
//	        (Out, P)                 (Out, P)                (o′, P) ∀ o′ ≥ Out
//	psum    one flip after step K    one flip after step K   one flip after step K
//	        of (Out, P)              of (Out, P) — resident, of (Out, P)
//	                                 persists by accumulation
//	pipe    east-forwarded act:      east-forwarded act:     east-forwarded weight:
//	        step K of (o′, P) for    step K of (o′, P) for   step K of (Out, p′) for
//	        o′ east in column tile   o′ east in column tile  p′ east in column tile
//
// A pipe fault whose PE sits at its column tile's east edge leaves the
// array unconsumed in every dataflow — architecturally masked.
package systolic

import (
	"fmt"

	"repro/internal/layers"
)

// Dataflow selects which operand stays resident in the PEs. The zero
// value is the weight-stationary dataflow.
type Dataflow int

const (
	// WeightStationary holds weights resident: activations flow east,
	// partial sums flow south (TPU-style).
	WeightStationary Dataflow = iota
	// OutputStationary holds partial sums resident: activations flow
	// east, weights flow south; each pass completes its outputs.
	OutputStationary
	// InputStationary holds activations resident: weights flow east,
	// partial sums flow south.
	InputStationary

	// NumDataflows is the number of dataflow strategies.
	NumDataflows
)

// String names the dataflow (the campaign.Spec wire names).
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "weight"
	case OutputStationary:
		return "output"
	case InputStationary:
		return "input"
	}
	return fmt.Sprintf("systolic.Dataflow(%d)", int(d))
}

// DataflowNames lists the accepted dataflow spec names.
var DataflowNames = []string{"weight", "output", "input"}

// ParseDataflow resolves a spec name to its dataflow; the empty name is
// the weight-stationary default.
func ParseDataflow(name string) (Dataflow, error) {
	switch name {
	case "", "weight":
		return WeightStationary, nil
	case "output":
		return OutputStationary, nil
	case "input":
		return InputStationary, nil
	}
	return 0, fmt.Errorf("systolic: unknown dataflow %q (want weight, output or input)", name)
}

// axes returns the logical extents mapped onto the physical row, column
// and time axes under the geometry's dataflow.
func (g Geometry) axes() (rowExt, colExt, timeExt int) {
	switch g.Flow {
	case OutputStationary:
		return g.P, g.Outs, g.K
	case InputStationary:
		return g.K, g.P, g.Outs
	}
	return g.K, g.Outs, g.P
}

// physical maps a site's logical coordinates onto the (row-axis,
// column-axis, time-axis) values of the dataflow.
func (g Geometry) physical(s Site) (rv, cv, tv int) {
	switch g.Flow {
	case OutputStationary:
		return s.P, s.Out, s.K
	case InputStationary:
		return s.K, s.P, s.Out
	}
	return s.K, s.Out, s.P
}

// logical is the inverse of physical.
func (g Geometry) logical(rv, cv, tv int) (k, o, p int) {
	switch g.Flow {
	case OutputStationary:
		return tv, cv, rv
	case InputStationary:
		return rv, tv, cv
	}
	return rv, cv, tv
}

// colCoord returns the logical value living on the column axis — the
// coordinate the east-forwarding pipe register walks across.
func (g Geometry) colCoord(s Site) int {
	if g.Flow == InputStationary {
		return s.P
	}
	return s.Out
}

// PipeMasked reports whether a pipeline-register site is architecturally
// masked: its PE sits at the east edge of its column tile, so the
// corrupted forwarded operand leaves the array unconsumed.
func (g Geometry) PipeMasked(s Site) bool {
	if s.Latch != LatchPipe {
		return false
	}
	cv := g.colCoord(s)
	return g.ColTileEnd(cv) == cv+1
}

// effects expands a site into its per-MAC corruption front under the
// geometry's dataflow: the struck per-MAC latch and the faulted output
// elements (flat (Out, P) indices in ascending order, each corrupted at
// chain step K), appended to dst. An empty set is the architecturally
// masked pipe fault at a tile's east edge.
func (g Geometry) effects(dst []int, s Site) (layers.Target, []int) {
	one := s.Out*g.P + s.P
	switch s.Latch {
	case LatchAct:
		if g.Flow == InputStationary {
			// Resident operand: corrupted for the rest of the pass — every
			// remaining time step (output column) that reads it.
			for o := s.Out; o < g.Outs; o++ {
				dst = append(dst, o*g.P+s.P)
			}
			return layers.TargetInput, dst
		}
		return layers.TargetInput, append(dst, one)
	case LatchPsum:
		// South-flowing (weight/input-stationary) or resident
		// (output-stationary): either way one accumulator-word flip after
		// step K, carried forward by the remaining accumulation.
		return layers.TargetAccum, append(dst, one)
	case LatchWeight:
		if g.Flow == WeightStationary {
			// Resident operand: corrupted reads for the rest of the pass.
			for p := s.P; p < g.P; p++ {
				dst = append(dst, s.Out*g.P+p)
			}
			return layers.TargetWeight, dst
		}
		return layers.TargetWeight, append(dst, one)
	case LatchPipe:
		// East-forwarding register: the corrupted moving operand is
		// consumed by every occupied PE east of the fault in its column
		// tile. What moves east — and so which operand the downstream MACs
		// see corrupted — is the dataflow's moving operand.
		cv := g.colCoord(s)
		end := g.ColTileEnd(cv)
		if g.Flow == InputStationary {
			for p := s.P + 1; p < end; p++ {
				dst = append(dst, s.Out*g.P+p)
			}
			return layers.TargetWeight, dst
		}
		for o := s.Out + 1; o < end; o++ {
			dst = append(dst, o*g.P+s.P)
		}
		return layers.TargetInput, dst
	}
	panic("systolic: unknown latch")
}

// planeTarget reports whether a latch is a single-MAC upset under the
// geometry's dataflow — exactly one corrupted read or accumulator word —
// and maps it onto the layers package's latch target for the
// bit-parallel plane replay. Multi-MAC (resident or forwarded) latches
// return ok false and replay through the effect expansion per bit.
func (g Geometry) planeTarget(l Latch) (t layers.Target, ok bool) {
	switch l {
	case LatchAct:
		if g.Flow == InputStationary {
			return 0, false
		}
		return layers.TargetInput, true
	case LatchPsum:
		return layers.TargetAccum, true
	case LatchWeight:
		if g.Flow == WeightStationary {
			return 0, false
		}
		return layers.TargetWeight, true
	}
	return 0, false
}

// abstract translates a single-bit site into the layers package's
// per-MAC descriptor when its corruption front is exactly one MAC: the
// dataflow's single-read latches always, its resident latch when struck at
// the last time step (one remaining read), and a pipe fault with exactly
// one downstream consumer. ok is false for multi-MAC or architecturally
// masked sites.
func (g Geometry) abstract(s Site) (f layers.Fault, ok bool) {
	target, elems := g.effects(nil, s)
	if len(elems) != 1 {
		return layers.Fault{}, false
	}
	return layers.Fault{OutputIndex: elems[0], MACStep: s.K, Target: target, Bit: s.Bit}, true
}
