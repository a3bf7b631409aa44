// Package harden implements the paper's Selective Latch Hardening (SLH,
// §6.3) following the analytical model of Sullivan et al.: given the
// per-bit SDC FIT contribution of a datapath word (measured by the Fig. 4
// campaigns), choose for each latch the cheapest hardened design such that
// a target whole-word FIT reduction is met at minimum area.
//
// Three hardened latch designs are considered (Table 9): strike
// suppression (RCC), redundant node (SEUT) and triplication (TMR), with
// FIT reductions of 6.3x, 37x and 1,000,000x at area costs of 1.15x, 2x
// and 3.5x the baseline latch.
package harden

import (
	"fmt"
	"math"
	"sort"
)

// Design is a hardened latch option from Table 9.
type Design struct {
	// Name labels the design.
	Name string
	// Area is the area relative to an unprotected latch.
	Area float64
	// Reduction is the per-latch FIT reduction factor.
	Reduction float64
}

// The Table 9 design space.
var (
	Baseline = Design{Name: "Baseline", Area: 1, Reduction: 1}
	RCC      = Design{Name: "RCC", Area: 1.15, Reduction: 6.3}
	SEUT     = Design{Name: "SEUT", Area: 2, Reduction: 37}
	TMR      = Design{Name: "TMR", Area: 3.5, Reduction: 1e6}
)

// Designs lists the hardening options in increasing strength.
var Designs = []Design{RCC, SEUT, TMR}

// Sensitivity is the per-latch (per-bit) SDC FIT contribution of a
// datapath word. Entries may be zero (bits whose flips never cause SDCs).
type Sensitivity []float64

// Total returns the unprotected word FIT.
func (s Sensitivity) Total() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Beta quantifies the asymmetry of the sensitivity distribution as the
// exponent of the best-fit curve y = (1-exp(-βx))/(1-exp(-β)) through the
// perfect-protection curve (Fig. 9a): a high β means a few latches carry
// nearly all the FIT.
func (s Sensitivity) Beta() float64 {
	xs, ys := s.ProtectionCurve()
	// Golden-section search for the β minimizing squared error.
	lo, hi := 0.01, 60.0
	const phi = 0.6180339887498949
	sse := func(beta float64) float64 {
		var e float64
		denom := 1 - math.Exp(-beta)
		for i := range xs {
			pred := (1 - math.Exp(-beta*xs[i])) / denom
			d := pred - ys[i]
			e += float64(d * d)
		}
		return e
	}
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	for b-a > 1e-6 {
		if sse(c) < sse(d) {
			b = d
		} else {
			a = c
		}
		c = b - float64(phi*(b-a))
		d = a + float64(phi*(b-a))
	}
	return (a + b) / 2
}

// ProtectionCurve returns the Fig. 9a curve: protecting the k most
// sensitive latches (perfectly) removes ys[k] of the total FIT, at
// xs[k] = k/len fraction of latches protected. Curves start at (0,0) and
// end at (1,1).
func (s Sensitivity) ProtectionCurve() (xs, ys []float64) {
	sorted := append(Sensitivity(nil), s...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total := s.Total()
	n := len(s)
	xs = make([]float64, n+1)
	ys = make([]float64, n+1)
	cum := 0.0
	for k := 1; k <= n; k++ {
		cum += sorted[k-1]
		xs[k] = float64(k) / float64(n)
		if total > 0 {
			ys[k] = cum / total
		} else {
			ys[k] = xs[k]
		}
	}
	return xs, ys
}

// Assignment maps each latch (by index) to its chosen design; nil entries
// mean baseline (unprotected).
type Assignment []*Design

// Area returns the total latch area overhead of the assignment as a
// fraction of the unprotected word area (e.g. 0.2 = +20%).
func (a Assignment) Area() float64 {
	var extra float64
	for _, d := range a {
		if d != nil {
			extra += d.Area - 1
		}
	}
	return extra / float64(len(a))
}

// ResidualFIT returns the word FIT remaining under the assignment.
func (a Assignment) ResidualFIT(s Sensitivity) float64 {
	var t float64
	for i, v := range s {
		if d := a[i]; d != nil {
			v /= d.Reduction
		}
		t += v
	}
	return t
}

// Uniform returns the sensitivity of a word whose bits contribute equally
// — the paper's "Uniform" reference curve in Fig. 9a.
func Uniform(n int) Sensitivity {
	s := make(Sensitivity, n)
	for i := range s {
		s[i] = 1 / float64(n)
	}
	return s
}

// SingleDesignPlan protects latches in descending sensitivity order with
// one design until the target whole-word FIT reduction factor is met.
// ok is false when the design cannot reach the target even protecting
// every latch (e.g. RCC capped at 6.3x).
func SingleDesignPlan(s Sensitivity, d Design, target float64) (Assignment, bool) {
	if target <= 0 {
		panic(fmt.Sprintf("harden: invalid target %v", target))
	}
	order := sensitivityOrder(s)
	a := make(Assignment, len(s))
	total := s.Total()
	if total == 0 {
		return a, true
	}
	budget := total / target
	for _, i := range order {
		if a.ResidualFIT(s) <= budget {
			return a, true
		}
		a[i] = &d
	}
	return a, a.ResidualFIT(s) <= budget
}

// MultiPlan combines the designs cost-optimally: repeatedly apply the
// upgrade (latch, design) with the best marginal FIT-reduction-per-area
// until the target reduction factor is met. This reproduces the "Multi"
// curve of Fig. 9b/9c.
func MultiPlan(s Sensitivity, target float64) (Assignment, bool) {
	if target <= 0 {
		panic(fmt.Sprintf("harden: invalid target %v", target))
	}
	a := make(Assignment, len(s))
	total := s.Total()
	if total == 0 {
		return a, true
	}
	budget := total / target
	for a.ResidualFIT(s) > budget {
		bi, bd, best := -1, (*Design)(nil), 0.0
		for i, v := range s {
			if v == 0 {
				continue
			}
			cur := a[i]
			curFIT, curArea := v, 1.0
			if cur != nil {
				curFIT, curArea = v/cur.Reduction, cur.Area
			}
			for di := range Designs {
				d := &Designs[di]
				if cur != nil && d.Reduction <= cur.Reduction {
					continue
				}
				dFIT := curFIT - v/d.Reduction
				dArea := d.Area - curArea
				if dArea <= 0 || dFIT <= 0 {
					continue
				}
				if ratio := dFIT / dArea; ratio > best {
					best, bi, bd = ratio, i, d
				}
			}
		}
		if bi < 0 {
			return a, false // no upgrade available; target unreachable
		}
		a[bi] = bd
	}
	return a, true
}

// OverheadCurve evaluates a plan function over a sweep of target FIT
// reduction factors, returning the area overhead (fraction) at each
// reachable target and NaN where unreachable — the Fig. 9b/9c series.
func OverheadCurve(s Sensitivity, targets []float64, plan func(Sensitivity, float64) (Assignment, bool)) []float64 {
	out := make([]float64, len(targets))
	for i, t := range targets {
		a, ok := plan(s, t)
		if !ok {
			out[i] = math.NaN()
			continue
		}
		out[i] = a.Area()
	}
	return out
}

// sensitivityOrder returns latch indices in descending sensitivity.
func sensitivityOrder(s Sensitivity) []int {
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })
	return order
}
