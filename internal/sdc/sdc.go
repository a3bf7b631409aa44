// Package sdc classifies the outcome of a faulty DNN inference against its
// fault-free (golden) execution using the paper's four Silent Data
// Corruption criteria (§4.6):
//
//	SDC-1:   the top-ranked element changed
//	SDC-5:   the faulty top-ranked element is outside the golden top five
//	SDC-10%: the top-ranked confidence moved by more than ±10% (relative)
//	SDC-20%: the top-ranked confidence moved by more than ±20% (relative)
//
// SDC-10% and SDC-20% require confidence scores, so they are undefined for
// NiN, which has no softmax (§4.1).
package sdc

import (
	"fmt"
	"math"

	"repro/internal/network"
)

// Kind is one of the paper's SDC criteria.
type Kind int

const (
	// SDC1 is a changed top-1 prediction.
	SDC1 Kind = iota
	// SDC5 is a faulty top-1 outside the golden top-5.
	SDC5
	// SDC10 is a >±10% relative change of the top-1 confidence.
	SDC10
	// SDC20 is a >±20% relative change of the top-1 confidence.
	SDC20

	// NumKinds is the number of SDC criteria.
	NumKinds
)

// Kinds lists all four criteria.
var Kinds = []Kind{SDC1, SDC5, SDC10, SDC20}

// String names the criterion as in the paper.
func (k Kind) String() string {
	switch k {
	case SDC1:
		return "SDC-1"
	case SDC5:
		return "SDC-5"
	case SDC10:
		return "SDC-10%"
	case SDC20:
		return "SDC-20%"
	}
	return "SDC-?"
}

// Outcome records which criteria a faulty run triggered. Undefined
// criteria (confidence SDCs for networks without softmax) stay false and
// are reported via Defined.
type Outcome struct {
	Hit     [NumKinds]bool
	Defined [NumKinds]bool
}

// Any reports whether any defined criterion was triggered.
func (o Outcome) Any() bool {
	for k := range o.Hit {
		if o.Hit[k] {
			return true
		}
	}
	return false
}

// Classify compares a faulty execution against the golden execution of
// network n.
func Classify(n *network.Network, golden, faulty *network.Execution) Outcome {
	var o Outcome
	o.Defined[SDC1], o.Defined[SDC5] = true, true

	gTop := golden.Top1()
	fTop := faulty.Top1()
	o.Hit[SDC1] = fTop != gTop
	// fTop is outside the golden ArgTopK(5) exactly when five golden
	// candidates outrank it; its rank is one pass over the golden output,
	// where the ranking itself is five and allocates.
	o.Hit[SDC5] = golden.Output().Rank(fTop) >= 5

	if n.HasSoftmax() {
		o.Defined[SDC10], o.Defined[SDC20] = true, true
		gConf := golden.Output().Data[gTop]
		fConf := faulty.Output().Data[gTop]
		rel := relativeChange(gConf, fConf)
		o.Hit[SDC10] = rel > 0.10
		o.Hit[SDC20] = rel > 0.20
	}
	return o
}

// relativeChange returns |f-g|/|g|, treating non-finite faulty confidences
// as an unbounded change.
func relativeChange(g, f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return math.Inf(1)
	}
	if g == 0 {
		if f == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(f-g) / math.Abs(g)
}

// Counts aggregates outcomes over a campaign.
type Counts struct {
	Trials int
	Hits   [NumKinds]int
	// DefinedTrials counts the runs where each criterion applied.
	DefinedTrials [NumKinds]int
}

// Add accumulates one outcome.
func (c *Counts) Add(o Outcome) {
	c.Trials++
	for k := range o.Hit {
		if o.Defined[k] {
			c.DefinedTrials[k]++
			if o.Hit[k] {
				c.Hits[k]++
			}
		}
	}
}

// Merge combines campaign counts.
func (c *Counts) Merge(d Counts) {
	c.Trials += d.Trials
	for k := range c.Hits {
		c.Hits[k] += d.Hits[k]
		c.DefinedTrials[k] += d.DefinedTrials[k]
	}
}

// Check reports whether c is a tally Add could have produced: for every
// criterion 0 ≤ Hits ≤ DefinedTrials ≤ Trials. It is the gate for tallies
// decoded from outside the process.
func (c Counts) Check() error {
	for k := range c.Hits {
		if c.Hits[k] < 0 || c.Hits[k] > c.DefinedTrials[k] || c.DefinedTrials[k] > c.Trials {
			return fmt.Errorf("sdc: %v tally of %d hits in %d defined of %d trials", Kind(k), c.Hits[k], c.DefinedTrials[k], c.Trials)
		}
	}
	return nil
}

// Probability returns the SDC probability for a criterion over the runs
// where it was defined.
func (c *Counts) Probability(k Kind) float64 {
	if c.DefinedTrials[k] == 0 {
		return 0
	}
	return float64(c.Hits[k]) / float64(c.DefinedTrials[k])
}
