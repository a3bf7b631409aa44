// Package systolic is the repo's third fault-injection surface: a
// dataflow-parameterized systolic array. The source paper measures error
// propagation on a row-stationary (Eyeriss) datapath; Jonckers et al.'s
// systolic-array SEU analysis shows the stationary dataflow changes the
// story qualitatively, because which PE latches hold *moving* operands —
// a flipped forwarding or stream register corrupts every PE the operand
// subsequently flows through, and a flipped resident register corrupts
// every time step that reads it until the pass ends — is a property of
// the dataflow, not the array. One cycle-level core therefore models
// weight-stationary (TPU-style, the default), output-stationary and
// input-stationary arrays. Each dataflow is one row of the table in
// dataflow.go — its wire name, the logical axis on the PE rows, the PE
// columns and time, the resident latch and the operand latch that flows
// east — and the schedule, the address decoder, the register-transfer
// loop (Sim.Run) and the per-latch corruption fronts are all derived from
// the row: adding a stationary dataflow is adding one row.
//
// Mapping. A CONV/FC layer is viewed as the matmul the array executes
// over logical coordinates (k, o, p): accumulation-chain steps k — the
// (ic, kh, kw) taps of a CONV chain or the input index of an FC dot
// product, in exactly the layers package's chain order — output channels
// or neurons o, and spatial output positions p in output-row-major
// order. The dataflow maps two of the axes onto the physical PE rows and
// columns and streams the third through time; the resident operand stays
// in its PE for a whole pass, the other two flow east and south, one MAC
// per PE per cycle. Layers larger than the physical array are tiled: row
// tile rt and column tile ct execute as pass rt·ColTiles + ct, with the
// bias injected as the initial partial sum of chain step 0 and
// accumulation sequential in ascending k — so the fault-free array
// output is bit-identical to layers.Forward under every numeric format
// and dataflow (stronger than the row-stationary pearray model, whose
// psum reduction order differs).
//
// Skew. The operand for time step t reaches PE (r, c) at cycle t + r + c
// of its pass — the standard diagonal wavefront. A physical fault
// address is therefore (pass, cycle, PE row, PE col, latch, bit), and
// Geometry.Resolve maps it to exactly one logical injection site or
// rejects it (idle row/column tiles, fill/drain cycles where the PE has
// no operand).
//
// Latches. Each PE carries four fault targets — weight, act, psum and
// the east-output forwarding (pipe) register. Which of them is the
// persistent resident register and which operand the pipe register
// forwards east are the row's choice; one rule per latch class, the same
// under every dataflow, turns that into a corruption front (dataflow.go).
// In every dataflow a pipe fault at a column tile's east edge leaves the
// array unconsumed — architecturally masked.
//
// MBU. A Width > 1 fault flips Width adjacent bits of the struck latch —
// the multi-bit-upset mode of the TWEPP'25 pipeline bit-fault analysis —
// on every dataflow and latch class.
package systolic

import (
	"fmt"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// Params is the physical array size in PEs.
type Params struct {
	Rows, Cols int
}

// DefaultParams is the 16×16 array the campaigns default to — large
// enough that the reduced-width model layers tile it in both dimensions.
var DefaultParams = Params{Rows: 16, Cols: 16}

// withDefaults resolves zero fields to the default array.
func (p Params) withDefaults() Params {
	if p.Rows <= 0 {
		p.Rows = DefaultParams.Rows
	}
	if p.Cols <= 0 {
		p.Cols = DefaultParams.Cols
	}
	return p
}

// Latch identifies the physical latch a fault strikes inside one PE.
type Latch int

const (
	// LatchWeight is the weight register — resident under the
	// weight-stationary dataflow, a single-read stream register otherwise.
	LatchWeight Latch = iota
	// LatchAct is the activation operand register — resident under the
	// input-stationary dataflow, single-read otherwise.
	LatchAct
	// LatchPsum is the partial-sum register — resident under the
	// output-stationary dataflow, south-flowing otherwise.
	LatchPsum
	// LatchPipe is the east-output forwarding register carrying the
	// dataflow's east-moving operand.
	LatchPipe

	// NumLatches is the number of latch classes per PE.
	NumLatches
)

// String names the latch.
func (l Latch) String() string {
	switch l {
	case LatchWeight:
		return "weight"
	case LatchAct:
		return "act-reg"
	case LatchPsum:
		return "psum-reg"
	case LatchPipe:
		return "pipeline-reg"
	}
	return fmt.Sprintf("systolic.Latch(%d)", int(l))
}

// Fault is a physically addressed transient fault: at the given cycle of
// the given pass, bits [Bit, Bit+Width) of the Latch register of PE
// (Row, Col) are inverted. Width 0 behaves as 1 (an SEU); Width > 1 is an
// MBU flipping adjacent bits.
type Fault struct {
	Pass  int
	Cycle int
	Row   int // PE row: row-axis index within the row tile (dataflow-mapped)
	Col   int // PE column: column-axis index within the column tile (dataflow-mapped)
	Latch Latch
	Bit   int
	Width int

	// Applied records whether the simulation consumed the fault — for
	// pipeline faults, whether any downstream PE consumed the corrupted
	// operand.
	Applied bool
}

// Geometry describes the tiled schedule of one MAC layer on the array
// under one dataflow.
type Geometry struct {
	// Rows × Cols physical PEs.
	Rows, Cols int
	// Flow is the dataflow the schedule runs under.
	Flow Dataflow
	// K is the accumulation-chain length (rows of the logical matmul),
	// Outs the output-channel/neuron count (columns), P the stream length
	// (spatial output positions; 1 for FC). Which of the three maps onto
	// the physical rows, columns and time is the dataflow's choice.
	K, Outs, P int
	// RowTiles × ColTiles passes cover the dataflow's (row axis × column
	// axis) logical plane.
	RowTiles, ColTiles int
	// Passes = RowTiles·ColTiles; pass rt·ColTiles + ct executes row tile
	// rt against column tile ct.
	Passes int
	// CyclesPerPass covers the skewed wavefront: the time-axis extent
	// plus Rows + Cols − 2.
	CyclesPerPass int
}

// LayerGeometry computes the schedule of a MAC layer for an input shape
// under a dataflow; ok is false for non-MAC layers.
func LayerGeometry(l layers.Layer, in tensor.Shape, par Params, flow Dataflow) (geo Geometry, ok bool) {
	par = par.withDefaults()
	geo = Geometry{Rows: par.Rows, Cols: par.Cols, Flow: flow}
	switch t := l.(type) {
	case *layers.ConvLayer:
		os := t.OutShape(in)
		geo.K = t.MACChainLen()
		geo.Outs = t.OutC
		geo.P = os.H * os.W
	case *layers.FCLayer:
		geo.K = t.In
		geo.Outs = t.Out
		geo.P = 1
	default:
		return Geometry{}, false
	}
	rowExt, colExt, timeExt := geo.axes()
	geo.RowTiles = (rowExt + geo.Rows - 1) / geo.Rows
	geo.ColTiles = (colExt + geo.Cols - 1) / geo.Cols
	geo.Passes = geo.RowTiles * geo.ColTiles
	geo.CyclesPerPass = timeExt + geo.Rows + geo.Cols - 2
	return geo, true
}

// Site is the logical injection site a physical fault resolves to: chain
// step K of the accumulation chain of output column Out at stream
// position P, striking the given latch bits.
type Site struct {
	K     int // chain step (global row index rt·Rows + PE row)
	Out   int // output channel / neuron (global column index)
	P     int // stream position (spatial output element; 0 for FC)
	Latch Latch
	Bit   int
	Width int // adjacent bits flipped (≥ 1)
}

// Resolve maps a physical fault address onto its unique logical injection
// site, or reports why the address is invalid: unknown latch, bit span
// outside the word, coordinates outside the physical array, idle rows or
// columns of a partially occupied edge tile, or fill/drain cycles where
// the addressed PE holds no operand. In-range addresses land on exactly
// one site (Encode is the inverse).
func (g Geometry) Resolve(f *Fault, width int) (Site, error) {
	if f.Latch < 0 || f.Latch >= NumLatches {
		return Site{}, fmt.Errorf("systolic: unknown latch %d", int(f.Latch))
	}
	w := f.Width
	if w == 0 {
		w = 1
	}
	if w < 0 {
		return Site{}, fmt.Errorf("systolic: negative fault width %d", f.Width)
	}
	if f.Bit < 0 || f.Bit+w > width {
		return Site{}, fmt.Errorf("systolic: bit span [%d,%d) outside %d-bit word", f.Bit, f.Bit+w, width)
	}
	if f.Pass < 0 || f.Pass >= g.Passes {
		return Site{}, fmt.Errorf("systolic: pass %d out of range [0,%d)", f.Pass, g.Passes)
	}
	if f.Row < 0 || f.Row >= g.Rows {
		return Site{}, fmt.Errorf("systolic: PE row %d out of range [0,%d)", f.Row, g.Rows)
	}
	if f.Col < 0 || f.Col >= g.Cols {
		return Site{}, fmt.Errorf("systolic: PE col %d out of range [0,%d)", f.Col, g.Cols)
	}
	rt, ct := f.Pass/g.ColTiles, f.Pass%g.ColTiles
	rowExt, colExt, timeExt := g.axes()
	rv := rt*g.Rows + f.Row
	if rv >= rowExt {
		return Site{}, fmt.Errorf("systolic: PE row %d idle in row tile %d (row-axis extent %d)", f.Row, rt, rowExt)
	}
	cv := ct*g.Cols + f.Col
	if cv >= colExt {
		return Site{}, fmt.Errorf("systolic: PE col %d idle in column tile %d (column-axis extent %d)", f.Col, ct, colExt)
	}
	tv := f.Cycle - f.Row - f.Col
	if tv < 0 || tv >= timeExt {
		return Site{}, fmt.Errorf("systolic: PE (%d,%d) idle at cycle %d (time step %d outside [0,%d))",
			f.Row, f.Col, f.Cycle, tv, timeExt)
	}
	k, o, p := g.logical(rv, cv, tv)
	return Site{K: k, Out: o, P: p, Latch: f.Latch, Bit: f.Bit, Width: w}, nil
}

// Encode is the inverse of Resolve: the unique physical address of a
// logical site.
func (g Geometry) Encode(s Site) Fault {
	rv, cv, tv := g.physical(s)
	row, col := rv%g.Rows, cv%g.Cols
	return Fault{
		Pass:  (rv/g.Rows)*g.ColTiles + cv/g.Cols,
		Cycle: tv + row + col,
		Row:   row,
		Col:   col,
		Latch: s.Latch,
		Bit:   s.Bit,
		Width: s.Width,
	}
}

// ColTileEnd returns the exclusive end of the column tile holding
// column-axis value v — output column for the weight- and
// output-stationary dataflows, stream position for input-stationary.
// The PEs between v and the end are the downstream consumers of the
// PE's east output.
func (g Geometry) ColTileEnd(v int) int {
	_, colExt, _ := g.axes()
	end := (v/g.Cols + 1) * g.Cols
	if end > colExt {
		end = colExt
	}
	return end
}
