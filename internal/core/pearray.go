package core

import (
	"fmt"
	"math/rand"

	"repro/internal/layers"
	"repro/internal/numeric"
	"repro/internal/pearray"
)

// PEArrayValidation cross-checks the cycle-level PE-array simulator
// against the abstract per-MAC fault model: N random physically addressed
// weight/image faults are injected into the first conv layer via both
// models and the ofmaps compared bit for bit (under order-safe fixed-point
// arithmetic).
type PEArrayValidation struct {
	Network string
	DType   numeric.Type
	// Checked is the number of compared faults; Matches how many produced
	// identical ofmaps.
	Checked, Matches int
	// Geometry echoes the simulated schedule.
	Geometry pearray.Geometry
}

// ValidatePEArray runs the cross-check on the named network's first conv
// layer, on at most 200 faults. Only a fixed-point format makes the two
// models agree bit for bit (exact, order-safe arithmetic; the experiment's
// cells are 32b_rb26).
func ValidatePEArray(cfg Config, netName string, dt numeric.Type) (PEArrayValidation, error) {
	net, err := buildNet(cfg, netName)
	if err != nil {
		return PEArrayValidation{}, err
	}
	conv := net.Layers[net.MACLayerIndices()[0]].(*layers.ConvLayer)
	in := inputsFor(netName, 1)[0]
	// Scale the input into the format's exact small-value regime so the
	// comparison is immune to accumulation-order rounding.
	scaled := in.Clone()
	scaled.Apply(func(v float64) float64 { return dt.Quantize(v / 1024) })

	sim := pearray.New(conv, dt)
	res := PEArrayValidation{Network: netName, DType: dt, Geometry: sim.Geometry(scaled.Shape)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for res.Checked < min(cfg.Injections, 200) {
		f := sim.RandomFault(rng, scaled.Shape)
		if f.Latch == pearray.LatchPsum {
			continue // psum order differs by design; see pearray docs
		}
		f.Bit = rng.Intn(dt.Width() - 4) // avoid sign-bit saturation clipping
		af, ok := sim.AbstractFault(f, scaled.Shape)
		if !ok {
			continue
		}
		phys := sim.Run(scaled, f)
		abs := conv.Forward(&layers.Context{DType: dt, Fault: &af}, scaled)
		same := true
		for i := range abs.Data {
			if phys.Data[i] != abs.Data[i] {
				same = false
				break
			}
		}
		res.Checked++
		if same {
			res.Matches++
		}
	}
	return res, nil
}

// Format renders the validation summary.
func (r PEArrayValidation) Format() string {
	return fmt.Sprintf("%s conv1 on a %dx%d RS PE set (%d passes, %d cycles/pass): %d/%d physically addressed faults bit-identical to the abstract per-MAC model\n",
		r.Network, r.Geometry.Rows, r.Geometry.Cols, r.Geometry.Passes, r.Geometry.CyclesPerPass,
		r.Matches, r.Checked)
}
