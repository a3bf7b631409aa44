// Dataflow strategies. The array model is parameterized by which operand
// stays resident in the PEs: every stationary dataflow shares one logical
// coordinate system — chain step K, output column Out, stream position P —
// and one physical addressing scheme (pass, cycle, PE row, PE col, latch,
// bit). A dataflow is one row of the flows table: the wire name, which
// logical axis maps onto the PE rows, the PE columns and time, the latch
// that holds the resident operand and the operand latch that flows east
// (the other operand flows south). Everything else — the schedule, the
// address decoder, the cycle-level simulator, the per-latch corruption
// fronts and the analytical pre-screen's single-MAC test — is derived from
// the row, so adding a stationary dataflow is adding one row.
//
//	dataflow  rows↔  cols↔  time↔  resident  east-flowing
//	weight    K      Out    P      weight    act
//	output    P      Out    K      psum      act
//	input     K      P      Out    act       weight
//
// The resident operand is the one the time axis does not index; the
// east-flowing one is indexed by the row and time axes, so a row's east
// latch is weight or act, never psum.
//
// Per-latch corruption fronts (effects on the logical MAC grid), one rule
// per latch class for every row:
//
//	weight, act  the row's resident latch: step K of every element the PE
//	             computes from the strike to the pass end (the time-axis
//	             suffix); otherwise one read: step K of (Out, P)
//	psum         one accumulator flip after step K of (Out, P) — south-
//	             flowing, or resident and carried by the accumulation
//	pipe         the east operand: step K of every element east of the PE
//	             in its column tile (the column-axis suffix)
//
// A pipe fault whose PE sits at its column tile's east edge leaves the
// array unconsumed in every dataflow — architecturally masked.
package systolic

import (
	"fmt"
	"strings"

	"repro/internal/layers"
)

// Dataflow selects which operand stays resident in the PEs: an index into
// the flows table. The zero value is the weight-stationary dataflow.
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

// Logical axes of the matmul the array executes, as indices of a
// coordinate triple (k, o, p).
const (
	axisK = iota
	axisOut
	axisP
)

// dataflowRow is one dataflow's row: its wire name, the logical axis on
// the PE rows, the PE columns and time, its resident latch and the operand
// latch its east-forwarding (pipe) register carries.
type dataflowRow struct {
	name           string
	row, col, time int
	resident, east Latch
}

// flows is the dataflow table, indexed by Dataflow; its order is the
// order of DataflowNames.
var flows = [NumDataflows]dataflowRow{
	WeightStationary: {"weight", axisK, axisOut, axisP, LatchWeight, LatchAct},
	OutputStationary: {"output", axisP, axisOut, axisK, LatchPsum, LatchAct},
	InputStationary:  {"input", axisK, axisP, axisOut, LatchAct, LatchWeight},
}

// persists reports whether a flip of operand latch l corrupts every later
// read of the pass: l is the row's resident weight or act register. A
// resident psum is one accumulator word, corrupted once like a moving one.
func (f dataflowRow) persists(l Latch) bool {
	return l == f.resident && l != LatchPsum
}

// String names the dataflow (the campaign.Spec wire names).
func (d Dataflow) String() string {
	if d >= 0 && d < NumDataflows {
		return flows[d].name
	}
	return fmt.Sprintf("systolic.Dataflow(%d)", int(d))
}

// DataflowNames lists the accepted dataflow spec names, in Dataflow order.
var DataflowNames = func() []string {
	names := make([]string, len(flows))
	for d, f := range flows {
		names[d] = f.name
	}
	return names
}()

// ParseDataflow resolves a spec name to its dataflow; the empty name is
// the weight-stationary default.
func ParseDataflow(name string) (Dataflow, error) {
	if name == "" {
		return 0, nil
	}
	for d, f := range flows {
		if f.name == name {
			return Dataflow(d), nil
		}
	}
	last := len(DataflowNames) - 1
	return 0, fmt.Errorf("systolic: unknown dataflow %q (want %s or %s)",
		name, strings.Join(DataflowNames[:last], ", "), DataflowNames[last])
}

// axes returns the logical extents mapped onto the physical row, column
// and time axes under the geometry's dataflow.
func (g Geometry) axes() (rowExt, colExt, timeExt int) {
	f, ext := flows[g.Flow], [3]int{g.K, g.Outs, g.P}
	return ext[f.row], ext[f.col], ext[f.time]
}

// physical maps a site's logical coordinates onto the (row-axis,
// column-axis, time-axis) values of the dataflow.
func (g Geometry) physical(s Site) (rv, cv, tv int) {
	f, v := flows[g.Flow], [3]int{s.K, s.Out, s.P}
	return v[f.row], v[f.col], v[f.time]
}

// logical is the inverse of physical.
func (g Geometry) logical(rv, cv, tv int) (k, o, p int) {
	f := flows[g.Flow]
	var v [3]int
	v[f.row], v[f.col], v[f.time] = rv, cv, tv
	return v[axisK], v[axisOut], v[axisP]
}

// elem is the flat (Out, P) output index of the physical coordinate.
func (g Geometry) elem(rv, cv, tv int) int {
	_, o, p := g.logical(rv, cv, tv)
	return o*g.P + p
}

// PipeMasked reports whether a pipeline-register site is architecturally
// masked: its PE sits at the east edge of its column tile, so the
// corrupted forwarded operand leaves the array unconsumed.
func (g Geometry) PipeMasked(s Site) bool {
	if s.Latch != LatchPipe {
		return false
	}
	_, cv, _ := g.physical(s)
	return g.ColTileEnd(cv) == cv+1
}

// latchTarget maps a latch class onto the layers package's per-MAC latch
// target; the pipe register carries its dataflow's east latch.
var latchTarget = [...]layers.Target{
	LatchWeight: layers.TargetWeight,
	LatchAct:    layers.TargetInput,
	LatchPsum:   layers.TargetAccum,
}

// effects expands a site into its per-MAC corruption front under the
// geometry's dataflow: the struck per-MAC latch and the faulted output
// elements (flat (Out, P) indices, each corrupted at chain step K),
// appended to dst. Along a front only one coordinate varies — the time
// axis of a resident operand, the column axis of a pipe, Out or P in every
// valid row — so the indices ascend. An empty set is the architecturally
// masked pipe fault at a tile's east edge.
func (g Geometry) effects(dst []int, s Site) (layers.Target, []int) {
	f := flows[g.Flow]
	rv, cv, tv := g.physical(s)
	switch {
	case s.Latch == LatchPipe:
		// East-forwarding register: the corrupted east operand is read by
		// every occupied PE east of the fault in its column tile.
		for c, end := cv+1, g.ColTileEnd(cv); c < end; c++ {
			dst = append(dst, g.elem(rv, c, tv))
		}
		return latchTarget[f.east], dst
	case f.persists(s.Latch):
		// Resident operand: every read from the strike to the pass end —
		// each remaining time step of the PE.
		_, _, timeExt := g.axes()
		for t := tv; t < timeExt; t++ {
			dst = append(dst, g.elem(rv, cv, t))
		}
		return latchTarget[s.Latch], dst
	}
	// One corrupted read, or one accumulator-word flip after step K
	// carried forward by the remaining accumulation (south-flowing or
	// resident psum alike).
	return latchTarget[s.Latch], append(dst, s.Out*g.P+s.P)
}

// planeTarget reports whether a latch is a single-MAC upset under the
// geometry's dataflow — exactly one corrupted read or accumulator word —
// and maps it onto the layers package's latch target for the
// bit-parallel plane replay. Multi-MAC (resident or forwarded) latches
// return ok false and replay through the effect expansion per bit.
func (g Geometry) planeTarget(l Latch) (t layers.Target, ok bool) {
	if l == LatchPipe || flows[g.Flow].persists(l) {
		return 0, false
	}
	return latchTarget[l], true
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
