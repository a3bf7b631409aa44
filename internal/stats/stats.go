// Package stats holds the one interval estimator behind every error bar of
// the fault-injection campaigns (the paper's 95% bars, §4.4): the stratified
// Horvitz–Thompson estimator of a binomial proportion, whose one-stratum
// case at weight 1 is the plain pooled proportion of a uniform campaign.
// internal/engine assembles it from report tallies; nothing else does.
package stats

import "math"

// z95 is the two-sided 95% normal quantile used for the paper's error bars.
const z95 = 1.959963984540054

// Proportion is one stratum's sample: successes out of trials.
type Proportion struct {
	// Successes is the number of positive outcomes.
	Successes int
	// Trials is the number of samples.
	Trials int
}

// P returns the point estimate. It is 0 for zero trials.
func (p Proportion) P() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson95 returns the 95% Wilson score interval [lo, hi]. Unlike the
// normal approximation it stays well-defined and non-degenerate at the
// boundaries: n=0 yields the vacuous [0, 1], and p̂=0 or p̂=1 yield
// intervals that still have width (the normal approximation collapses to a
// zero-width interval there, overstating certainty).
func (p Proportion) Wilson95() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	est := p.P()
	z2 := z95 * z95
	den := 1 + z2/n
	center := (est + z2/(2*n)) / den
	half := z95 * math.Sqrt(est*(1-est)/n+z2/(4*n*n)) / den
	return clamp01(center - half), clamp01(center + half)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Stratified is the Horvitz–Thompson estimator of a population proportion
// from stratified samples: per-stratum sample proportions combined with the
// strata's fixed population weights (their probabilities under the uniform
// sampling design the estimate must stay unbiased for). Strata with zero
// weight or zero samples are excluded and the remaining weight mass is
// renormalized, so a partially sampled design still yields an estimate of
// the covered population. A uniform campaign is the one-stratum case:
// weight 1, its pooled tally as the one part.
type Stratified struct {
	// Weights[h] is stratum h's population probability under uniform
	// sampling; the weights of one campaign are identical in every shard.
	Weights []float64
	// Parts[h] is the pooled sample proportion observed in stratum h.
	Parts []Proportion
}

// sampled reports whether stratum h counts towards the estimate: it has
// positive weight and at least one trial.
func (s Stratified) sampled(h int) bool { return s.Weights[h] > 0 && s.Parts[h].Trials > 0 }

// mass returns the total weight of the sampled strata.
func (s Stratified) mass() float64 {
	var mass float64
	for h, w := range s.Weights {
		if s.sampled(h) {
			mass += w
		}
	}
	return mass
}

// P returns the weighted point estimate Σ W_h·p̂_h over the sampled strata,
// renormalized by their total weight.
func (s Stratified) P() float64 {
	var num, mass float64
	for h, w := range s.Weights {
		if s.sampled(h) {
			num += float64(w * s.Parts[h].P())
			mass += w
		}
	}
	if mass == 0 {
		return 0
	}
	return num / mass
}

// CI95 returns the half-width of the 95% normal-approximation interval:
// z·√(Σ (W_h/W)²·p̂_h(1−p̂_h)/n_h), the textbook plug-in variance, which for
// one stratum is the binomial z·√(p̂(1−p̂)/n) bit for bit. A stratum whose
// sample proportion is 0 or 1 contributes zero (the Wald convention), and
// the half-width is 0 when nothing was sampled.
func (s Stratified) CI95() float64 {
	mass := s.mass()
	if mass == 0 {
		return 0
	}
	var varSum float64
	for h, w := range s.Weights {
		if !s.sampled(h) {
			continue
		}
		est := s.Parts[h].P()
		frac := w / mass
		varSum += frac * frac * est * (1 - est) / float64(s.Parts[h].Trials)
	}
	return z95 * math.Sqrt(varSum)
}

// Bounds returns the 95% interval [lo, hi] clamped to [0, 1] — the form the
// live status reports. With nothing sampled nothing has been learned, so the
// interval is the vacuous [0, 1] rather than the misleadingly tight point
// [0, 0] the normal approximation would degenerate to.
func (s Stratified) Bounds() (lo, hi float64) {
	if s.mass() == 0 {
		return 0, 1
	}
	ci := s.CI95()
	return clamp01(s.P() - ci), clamp01(s.P() + ci)
}
