package engine

import (
	"fmt"
	"math/rand"
)

// Residency is the sampler of the surfaces that place a random-in-time
// upset by where the struck data is resident: MAC layer i is struck with
// probability proportional to its residency weight, and the base bit of an
// mbu-bit flipped span is uniform over the word's width−mbu+1 in-word
// positions. Its layer positions are the block axis of the surface's
// stratum grid. A sampler is immutable, so a campaign derives one and every
// slot, whatever its upset width, reads it.
type Residency struct {
	cum   []float64 // cumulative layer probabilities; the last is 1
	width int
}

// NewResidency builds the sampler for a campaign of width-bit words.
// weights holds one non-negative weight per MAC layer — by default the
// layer's MAC count; override, when non-nil, replaces them (a scheduler's
// cycle weights) and must match in length.
func NewResidency(weights, override []float64, width int) *Residency {
	if len(weights) == 0 {
		panic("engine: network has no MAC layers")
	}
	if override != nil {
		if len(override) != len(weights) {
			panic(fmt.Sprintf("engine: %d residency weights for %d MAC layers", len(override), len(weights)))
		}
		weights = override
	}
	r := &Residency{cum: make([]float64, len(weights)), width: width}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("engine: negative residency weight")
		}
		total += w
		r.cum[i] = total
	}
	if total <= 0 {
		panic("engine: residency weights sum to zero")
	}
	for i := range r.cum {
		r.cum[i] /= total
	}
	return r
}

// Pick draws a MAC-layer position by residency weight, consuming one
// float from rng.
func (r *Residency) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range r.cum {
		if u < c {
			return i
		}
	}
	return len(r.cum) - 1
}

// Prob returns the residency probability of MAC-layer position i.
func (r *Residency) Prob(i int) float64 {
	if i == 0 {
		return r.cum[0]
	}
	return r.cum[i] - r.cum[i-1]
}

// StratumWeights returns the (MAC layer, base bit) population
// probabilities of the sampler's uniform design under an mbu-bit upset —
// the weights that make the stratified estimator unbiased for it.
func (r *Residency) StratumWeights(mbu int) HexFloats {
	return StratumGrid(len(r.cum), r.width, mbu, func(i, valid int) float64 {
		return r.Prob(i) / float64(valid)
	})
}

// DrawBit resolves the base bit of an mbu-bit flipped span: forced when
// bit >= 0 (the stratified main phase and the site modes; no randomness
// consumed), drawn uniformly over the in-word spans otherwise.
func (r *Residency) DrawBit(rng *rand.Rand, bit, mbu int) int {
	if bit >= 0 {
		return bit
	}
	return rng.Intn(r.width - mbu + 1)
}

// StratumGrid lays per-block weights out over the blocks×width (block,
// base bit) stratum grid, stratum h = block·width + bit. Under an mbu-bit
// upset the base bit ranges over the word's valid = width−mbu+1 in-word
// spans, so the top mbu−1 base-bit strata of every block carry zero weight
// and are never allocated injections; perBit(block, valid) is the weight of
// each of the block's valid strata.
func StratumGrid(blocks, width, mbu int, perBit func(block, valid int) float64) HexFloats {
	valid := width - mbu + 1
	w := make(HexFloats, blocks*width)
	for b := 0; b < blocks; b++ {
		wb := perBit(b, valid)
		for bit := 0; bit < valid; bit++ {
			w[b*width+bit] = wb
		}
	}
	return w
}
