// Package fit implements the paper's Failure-In-Time arithmetic (Eq. 1):
//
//	FIT = Σ_component Rraw · S_component · SDC_component
//
// where Rraw is the raw upset rate per bit, S the component size in bits
// and SDC the component's SDC probability. The paper estimates Rraw as
// 20.49 FIT/Mb at 16 nm by extrapolating Neale et al.'s 28 nm measurement
// (157.62 FIT/MB, corrected by the 0.65 factor the authors confirmed with
// Neale) along the technology trend of that paper's Figure 1; we encode
// the final value and keep the origin constants for the record.
package fit

import "fmt"

const (
	// RawFITPerMb16nm is the paper's raw soft-error rate at 16 nm in
	// FIT per megabit (§4.7).
	RawFITPerMb16nm = 20.49
	// NealeRawFITPerMB28nm is the original 28 nm measurement from Neale
	// et al. in FIT per megabyte, before correction and scaling.
	NealeRawFITPerMB28nm = 157.62
	// NealeCorrection is the erratum factor the paper applies (footnote 3).
	NealeCorrection = 0.65
	// ISO26262SoCBudget is the whole-SoC FIT budget mandated by ISO 26262
	// for the self-driving use case (§2.3).
	ISO26262SoCBudget = 10.0
)

// BitsPerMb is the megabit convention of the paper's arithmetic. Working
// back from the published Table 8 FIT rates and SDC probabilities (e.g.
// ConvNet Global Buffer: 87.47 / 0.697 / 20.49 = 6.125 Mb for a 784 KB
// buffer) shows the authors used binary megabits (2^20 bits).
const BitsPerMb = 1 << 20

// Rate returns the FIT contribution of a component of the given size (in
// bits) with the given SDC probability, per Eq. 1.
func Rate(bits int64, sdcProb float64) float64 {
	return float64(RawFITPerMb16nm * float64(bits) / BitsPerMb * sdcProb)
}

// Component is one hardware structure entering the Eq. 1 sum.
type Component struct {
	// Name labels the structure ("Global Buffer", "datapath", ...).
	Name string
	// Bits is the structure size in bits (S_component).
	Bits int64
	// SDCProb is the measured SDC probability of faults in the structure.
	SDCProb float64
}

// FIT returns the component's FIT contribution.
func (c Component) FIT() float64 { return Rate(c.Bits, c.SDCProb) }

// String formats the component as a table row.
func (c Component) String() string {
	return fmt.Sprintf("%-14s %12d bits  SDC=%6.2f%%  FIT=%.4g", c.Name, c.Bits, c.SDCProb*100, c.FIT())
}

// Total sums the FIT contributions of a set of components — the overall
// accelerator FIT rate of §5.2.
func Total(components []Component) float64 {
	var t float64
	for _, c := range components {
		t += c.FIT()
	}
	return t
}

// ExceedsBudget reports whether a FIT rate violates a budget (for the
// ISO 26262 comparison: the DNN accelerator's allowance is only a small
// fraction of the 10-FIT SoC budget).
func ExceedsBudget(fitRate, budget float64) bool { return fitRate > budget }
