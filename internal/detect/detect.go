// Package detect implements the paper's Symptom-based Error Detector
// (SED, §6.2). The detector exploits the §5.1.3 observation that
// SDC-causing faults drive activations far outside the narrow per-layer
// value ranges of the fault-free network, while benign faults rarely do.
//
// Learning phase (offline, once): run the instrumented network on
// representative inputs and record the min/max activation value of each
// layer, then widen each bound by a 10% cushion.
//
// Deployment phase: at the end of each layer — when the layer's ofmap sits
// in the global buffer as the next layer's input — the host checks the
// values against the learned bounds, asynchronously with the accelerator's
// execution of the next layer.
package detect

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// DefaultCushion is the paper's 10% widening of the learned ranges.
const DefaultCushion = 0.10

// Detector holds learned per-block activation bounds for one network and
// format.
type Detector struct {
	// NetName records which network the bounds describe.
	NetName string
	// DType is the format the bounds were learned under.
	DType numeric.Type
	// Bounds has one cushioned range per paper-style block.
	Bounds []network.Range
}

// Learn profiles the network on the training inputs and returns a detector
// with cushioned bounds. cushion is the relative widening (0.10 for the
// paper's detector).
func Learn(net *network.Network, dt numeric.Type, inputs []*tensor.Tensor, cushion float64) *Detector {
	if len(inputs) == 0 {
		panic("detect: Learn needs at least one input")
	}
	var bounds []network.Range
	for i, in := range inputs {
		exec := net.Forward(dt, in)
		rs := net.BlockRanges(exec)
		if i == 0 {
			bounds = rs
			continue
		}
		for b := range bounds {
			if rs[b].Min < bounds[b].Min {
				bounds[b].Min = rs[b].Min
			}
			if rs[b].Max > bounds[b].Max {
				bounds[b].Max = rs[b].Max
			}
		}
	}
	for b := range bounds {
		bounds[b] = cushioned(bounds[b], cushion)
	}
	return &Detector{NetName: net.Name, DType: dt, Bounds: bounds}
}

// cushioned widens a range by the relative cushion on both sides, per the
// paper: (-1.1·X, 1.1·Y) for a learned range (-X, Y).
func cushioned(r network.Range, cushion float64) network.Range {
	return network.Range{
		Min: r.Min - float64(cushion*abs(r.Min)),
		Max: r.Max + float64(cushion*abs(r.Max)),
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Check scans the block-end activations of an execution and reports
// whether any value violates the learned bounds — the symptom that flags a
// likely SDC. It allocates nothing and is safe for concurrent use.
func (d *Detector) Check(net *network.Network, exec *network.Execution) bool {
	acts := net.BlockActs(exec)
	if len(acts) != len(d.Bounds) {
		panic(fmt.Sprintf("detect: %d blocks, detector has %d bounds", len(acts), len(d.Bounds)))
	}
	for b, act := range acts {
		r := d.Bounds[b]
		for _, v := range act.Data {
			if v != v || v < r.Min || v > r.Max { // NaN or out of range
				return true
			}
		}
	}
	return false
}

// CheckBlock checks a single block's activations, for hosts that interleave
// detection with layer execution.
func (d *Detector) CheckBlock(block int, act *tensor.Tensor) bool {
	r := d.Bounds[block]
	for _, v := range act.Data {
		if v != v || v < r.Min || v > r.Max {
			return true
		}
	}
	return false
}

// FalseAlarmRate runs the detector over fault-free executions of the given
// inputs and returns the fraction flagged — the residual false-positive
// rate on inputs outside the training set.
func (d *Detector) FalseAlarmRate(net *network.Network, inputs []*tensor.Tensor) float64 {
	if len(inputs) == 0 {
		return 0
	}
	alarms := 0
	for _, in := range inputs {
		if d.Check(net, net.Forward(d.DType, in)) {
			alarms++
		}
	}
	return float64(alarms) / float64(len(inputs))
}
