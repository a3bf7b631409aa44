// Package stats provides the small statistical toolkit the fault-injection
// campaigns use: binomial proportions with 95% confidence intervals (the
// paper's error bars), histograms and summary helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// z95 is the two-sided 95% normal quantile used for the paper's error bars.
const z95 = 1.959963984540054

// Proportion is an estimated probability with its sample size.
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

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval, the error-bar convention of the paper (§5).
func (p Proportion) CI95() float64 {
	if p.Trials == 0 {
		return 0
	}
	est := p.P()
	return float64(z95 * math.Sqrt(est*(1-est)/float64(p.Trials)))
}

// String formats the proportion as a percentage with its error bar.
func (p Proportion) String() string {
	return fmt.Sprintf("%.2f%% ±%.2f%%", p.P()*100, p.CI95()*100)
}

// Merge combines two proportions drawn from the same population.
func (p Proportion) Merge(q Proportion) Proportion {
	return Proportion{Successes: p.Successes + q.Successes, Trials: p.Trials + q.Trials}
}

// MergeAll pools any number of per-shard proportions into the campaign
// estimate. Because the counts are sufficient statistics, the pooled point
// estimate and CI are independent of how the trials were partitioned into
// shards — the property the distributed campaign coordinator relies on
// when it merges streamed partial reports.
func MergeAll(ps ...Proportion) Proportion {
	var total Proportion
	for _, p := range ps {
		total = total.Merge(p)
	}
	return total
}

// Bounds returns the 95% confidence interval [lo, hi] clamped to [0, 1] —
// the form the coordinator's streaming NDJSON endpoint reports. With zero
// trials nothing has been learned, so the interval is the vacuous [0, 1]
// rather than the misleadingly tight point [0, 0] the normal approximation
// would degenerate to.
func (p Proportion) Bounds() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	ci := p.CI95()
	lo, hi = p.P()-ci, p.P()+ci
	return clamp01(lo), clamp01(hi)
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
// the covered population.
type Stratified struct {
	// Weights[h] is stratum h's population probability under uniform
	// sampling; the weights of one campaign are identical in every shard.
	Weights []float64
	// Parts[h] is the pooled sample proportion observed in stratum h.
	Parts []Proportion
}

// P returns the weighted point estimate Σ W_h·p̂_h over the sampled strata,
// renormalized by their total weight.
func (s Stratified) P() float64 {
	var num, mass float64
	for h := range s.Weights {
		if s.Weights[h] <= 0 || s.Parts[h].Trials == 0 {
			continue
		}
		num += float64(s.Weights[h] * s.Parts[h].P())
		mass += s.Weights[h]
	}
	if mass == 0 {
		return 0
	}
	return num / mass
}

// CI95 returns the half-width of the 95% normal-approximation interval for
// the stratified estimate: z·√(Σ (W_h/W)²·p̂_h(1−p̂_h)/n_h), the textbook
// plug-in variance. A stratum whose sample proportion is 0 or 1 contributes
// zero — the same convention as Proportion.CI95, which is what makes the
// two half-widths directly comparable at equal budget.
func (s Stratified) CI95() float64 {
	var varSum, mass float64
	for h := range s.Weights {
		if s.Weights[h] <= 0 || s.Parts[h].Trials == 0 {
			continue
		}
		mass += s.Weights[h]
	}
	if mass == 0 {
		return 0
	}
	for h := range s.Weights {
		w, part := s.Weights[h], s.Parts[h]
		if w <= 0 || part.Trials == 0 {
			continue
		}
		est := part.P()
		frac := w / mass
		varSum += frac * frac * est * (1 - est) / float64(part.Trials)
	}
	return z95 * math.Sqrt(varSum)
}

// Bounds returns the clamped 95% interval [lo, hi]; like
// Proportion.Bounds it is the vacuous [0, 1] when nothing was sampled.
func (s Stratified) Bounds() (lo, hi float64) {
	var sampled bool
	for h := range s.Weights {
		if s.Weights[h] > 0 && s.Parts[h].Trials > 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		return 0, 1
	}
	ci := s.CI95()
	return clamp01(s.P() - ci), clamp01(s.P() + ci)
}

// Merge pools another stratified sample of the same design (equal weights,
// stratum by stratum) into s. Pooling per-stratum counts before estimating
// is what keeps the merged estimate independent of how trials were
// partitioned into shards — the stratified analogue of MergeAll's
// sufficient-statistics property.
func (s Stratified) Merge(t Stratified) Stratified {
	if len(s.Weights) != len(t.Weights) {
		panic(fmt.Sprintf("stats: merging stratified estimates with %d vs %d strata",
			len(s.Weights), len(t.Weights)))
	}
	out := Stratified{
		Weights: append([]float64(nil), s.Weights...),
		Parts:   make([]Proportion, len(s.Parts)),
	}
	for h := range s.Parts {
		if s.Weights[h] != t.Weights[h] {
			panic(fmt.Sprintf("stats: merging stratified estimates with mismatched weight for stratum %d", h))
		}
		out.Parts[h] = s.Parts[h].Merge(t.Parts[h])
	}
	return out
}

// MergeAllStratified pools any number of per-shard stratified samples of
// one design into the campaign estimate.
func MergeAllStratified(ss ...Stratified) Stratified {
	var total Stratified
	for i, s := range ss {
		if i == 0 {
			total = Stratified{
				Weights: append([]float64(nil), s.Weights...),
				Parts:   append([]Proportion(nil), s.Parts...),
			}
			continue
		}
		total = total.Merge(s)
	}
	return total
}

// Percentile returns the q-th percentile (0..100) of xs using linear
// interpolation. It panics on an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := float64(q / 100 * float64(len(s)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// Histogram bins values into n equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Under and Over count values outside [Min, Max].
	Under, Over int
}

// NewHistogram creates a histogram with n bins over [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) with %d bins", min, max, n))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || v < h.Min {
		h.Under++
		return
	}
	if v >= h.Max {
		h.Over++
		return
	}
	i := int((v - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // guard the max-edge rounding case
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + float64((float64(i)+0.5)*w)
}
