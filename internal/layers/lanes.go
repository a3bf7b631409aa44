package layers

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/numeric"
)

// macStep is one cached-chain delta step of a MAC layer in the shape both
// MAC layers share: chans output channels (FC: neurons) at each position of
// sc.spatial (FC: the one position 0), positions plane elements apart in the
// output. Lane (c, k) is output element c·plane + spatial[k]; it reads the
// changed taps sc.steps/xs/dx[offs[k]:offs[k+1]], and its value goes to
// sc.vals[k·chans+c].
//
// Every lane is replayed (numeric.Type.ChainReplay) unless the walk's Tail
// lets the step prove it need not be (run, certify) from the lane's
// numeric.Type.LaneBound B: a bound on |faulty − golden| of its output, from
// its weight norms, its input deltas and its golden partials. Fixed-point
// replays also pass the call's bound, under which closedFx drops its
// saturation tracking; that holds under every Tail.
type macStep struct {
	ctx                 *Context
	sc                  *ChainScratch
	lc                  *layerChains
	q                   *quantEntry
	golden              []float64 // the layer's golden output
	plane, chans, chain int
}

// laneKey orders the undecided classes of a certificate: by the softmax
// mass their interval leaves open, or, searching for a witness, by the
// interval's width.
type laneKey struct {
	key   float64
	class int
}

// certainty is the slack of the certificate's confidence check: the
// faulty top-1 confidence must stay within sdc.Classify's SDC-10% band of
// 10 % around golden's by this much more, which covers the rounding of
// both softmaxes and of the check.
const certainty = 0x1p-20

// run replays what it must of the step's lanes, writes every lane that
// leaves golden into out and appends its index to dst, in output order. A
// certified step (ctx.Certified) writes and appends nothing.
//
// A lane whose upper end (golden + B) stays below its channel's floor
// cannot move what the walk reads, so it stays golden, out of the changed
// set the next steps would have dropped it from: under TailReLU the floor
// is 0, the ReLU's clamp, and only float lanes are checked (a fixed-point
// lane's closed form costs less than the check); under TailReLUMax it is
// the channel's largest ReLU'd golden value over the positions the step
// leaves unchanged, which the pool's max holds anyway. Under a classifier
// Tail the step first tries certify.
func (s *macStep) run(out []float64, dst []int) []int {
	sc, dt, tail := s.sc, s.ctx.DType, s.ctx.Tail
	P, C := len(sc.spatial), s.chans
	sc.vals = grow(sc.vals, P*C)
	sc.dnorm = grow(sc.dnorm, P)
	for k := range P {
		sc.dnorm[k] = numeric.NormsOf(sc.dx[sc.offs[k]:sc.offs[k+1]])
	}
	classifier := tail == TailSoftmax || tail == TailReLUMax
	skip := tail == TailReLUMax || (tail == TailReLU && dt.IsFloat())
	if classifier || skip {
		s.bounds()
		sc.floor = grow(sc.floor, C)
		clear(sc.floor)
		if tail == TailReLUMax {
			s.floors()
		}
	}
	if classifier {
		sc.decided = marks(sc.decided, C)
		if s.certify() {
			clear(sc.decided[:C])
			s.ctx.Certified = true
			return dst
		}
	}
	for k, si := range sc.spatial {
		var lanes []int
		if classifier || skip {
			lanes = sc.lanes[:0]
			for c := range C {
				g := s.golden[c*s.plane+si]
				switch {
				case classifier && sc.decided[c]:
				case skip && g+sc.bnd[k*C+c] < sc.floor[c]:
					sc.vals[k*C+c] = g
				default:
					lanes = append(lanes, c)
				}
			}
			sc.lanes = lanes
			if len(lanes) == 0 {
				continue
			}
		}
		s.replay(k, lanes)
	}
	if classifier {
		clear(sc.decided[:C])
	}
	for c := range C {
		for k, si := range sc.spatial {
			oi := c*s.plane + si
			if nv := sc.vals[k*C+c]; !bitsEqual(nv, s.golden[oi]) {
				out[oi] = nv
				dst = append(dst, oi)
			}
		}
	}
	return dst
}

// floors writes into sc.floor each channel's largest ReLU'd golden value
// over the positions the step leaves unchanged (0 when it changes them
// all): the part of a full-extent max-pool's output no lane of the step
// can lower.
func (s *macStep) floors() {
	sc := s.sc
	sc.covered = marks(sc.covered, s.plane)
	for _, si := range sc.spatial {
		sc.covered[si] = true
	}
	for c := range s.chans {
		m := 0.0
		for p, changed := range sc.covered[:s.plane] {
			if g := s.golden[c*s.plane+p]; !changed && g > m {
				m = g
			}
		}
		sc.floor[c] = m
	}
	for _, si := range sc.spatial {
		sc.covered[si] = false
	}
}

// replay replays lanes (nil: all) of position k into sc.vals.
func (s *macStep) replay(k int, lanes []int) {
	sc, dt := s.sc, s.ctx.DType
	lo, hi, si := sc.offs[k], sc.offs[k+1], sc.spatial[k]
	bound := math.Inf(1)
	if !dt.IsFloat() {
		bound = dt.LaneBound(s.q.norms[s.chans], sc.dnorm[k], 0, s.chain-sc.steps[lo], hi-lo)
	}
	dt.ChainReplay(sc.vals[k*s.chans:(k+1)*s.chans], s.lc.prefix[si*(s.chain+1):], s.lc.prods[si*s.chain:],
		s.q.weights, s.lc.bounds[3*si:], s.plane, lanes, bound, sc.steps[lo:hi], sc.xs[lo:hi], s.chain)
}

// bounds writes every lane's LaneBound into sc.bnd, position-major like
// sc.vals.
func (s *macStep) bounds() {
	sc, dt := s.sc, s.ctx.DType
	sc.bnd = grow(sc.bnd, len(sc.spatial)*s.chans)
	for k, si := range sc.spatial {
		lo, hi := sc.offs[k], sc.offs[k+1]
		walked, d := s.chain-sc.steps[lo], sc.dnorm[k]
		for c := range s.chans {
			b := s.lc.bounds[3*(c*s.plane+si):]
			sc.bnd[k*s.chans+c] = dt.LaneBound(s.q.norms[c], d, max(-b[0], b[1]), walked, hi-lo)
		}
	}
}

// certify tries to prove that the network output, a class per channel,
// classifies exactly as golden's (ctx.Final) does under every SDC criterion
// and still differs from it, replaying as few lanes as it can. A class
// whose lanes it replays is decided (sc.decided) and holds them in sc.vals;
// any other class lies in an interval from its lanes' bounds. It replays
// the contenders — the golden top-1 class t and every class whose upper
// end reaches t's lower end — then proves
//
//   - some decided class off its golden score, the witness that the exact
//     walk would not mask the fault;
//   - the top-1 class unchanged: t's exact score above every other class's
//     upper end by a binary64 rounding margin, so the faulty softmax ranks it
//     first too, which settles SDC-5 as well;
//   - under a softmax, the top-1 confidence within 10 % of golden's from the
//     score intervals. While only that fails, it decides the undecided
//     classes whose intervals leave the most softmax mass open, doubling the
//     decided set each round.
//
// It gives up, returning false with what it replayed kept, once the proof
// would decide more than an eighth of the classes, or could not close the
// confidence interval within that; only the search for a witness, whose
// replays the exact walk would make anyway, may go past. Under TailSoftmax
// a class is its one lane; under TailReLUMax it is the max of its floor
// (sc.floor) and its ReLU'd lanes.
func (s *macStep) certify() bool {
	sc, final := s.sc, s.ctx.Final
	P, C := len(sc.spatial), s.chans
	softmax := s.ctx.Tail == TailSoftmax
	if len(final) != C || (softmax && s.plane != 1) {
		return false
	}
	t := 0
	for c, v := range final {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if v > final[t] {
			t = c
		}
	}
	// Every class's interval [lo, hi] from its lanes' bounds; under
	// TailReLUMax its upper end is also at least golden's.
	sc.lo, sc.hi = grow(sc.lo, C), grow(sc.hi, C)
	for c := range C {
		if softmax {
			g, b := s.golden[c], sc.bnd[c]
			sc.lo[c], sc.hi[c] = g-b, g+b
			continue
		}
		lo, hi := sc.floor[c], final[c]
		for k, si := range sc.spatial {
			g, b := s.golden[c*s.plane+si], sc.bnd[k*C+c]
			lo, hi = max(lo, g-b), max(hi, g+b)
		}
		sc.lo[c], sc.hi[c] = lo, hi
	}
	budget, n := max(1, C/8), 0
	lanes := sc.lanes[:0]
	for c := range C {
		if c == t || sc.hi[c] >= sc.lo[t] {
			lanes = append(lanes, c)
		}
	}
	var keys []laneKey
	sorted, searching := false, false
	for {
		sc.lanes = lanes
		if n += len(lanes); n > budget && !searching {
			return false
		}
		for k := range P {
			s.replay(k, lanes)
		}
		for _, c := range lanes {
			sc.decided[c] = true
			e := sc.vals[c]
			if !softmax {
				e = sc.floor[c]
				for k := range P {
					if v := sc.vals[k*C+c]; v > e { // ReLU, then max: NaN never wins
						e = v
					}
				}
			}
			sc.lo[c], sc.hi[c] = e, e
		}
		top, witness := s.ranked(t, softmax)
		if !top {
			return false
		}
		if !witness {
			// No decided class moved. Look for one that did, widest
			// interval first, past the budget: the exact walk would replay
			// these lanes anyway, to find it or to mask the fault.
			if !searching {
				searching, keys = true, sc.keys[:0]
				for c := range C {
					if !sc.decided[c] && sc.hi[c] > sc.lo[c] && (softmax || sc.hi[c] > sc.floor[c]) {
						keys = append(keys, laneKey{key: sc.hi[c] - sc.lo[c], class: c})
					}
				}
				slices.SortFunc(keys, func(a, b laneKey) int { return cmp.Compare(b.key, a.key) })
			}
			lanes = sc.lanes[:0]
			for len(lanes) < max(4, n) && len(keys) > 0 {
				lanes, keys = append(lanes, keys[0].class), keys[1:]
			}
			if len(lanes) == 0 {
				return false
			}
			continue
		}
		if !softmax {
			return true
		}
		if searching {
			searching, sorted = false, false
		}
		up, down := s.mass(t, !sorted)
		// conf' = 1/(1 + Σ_{c≠t} exp(s_c − s_t)) lies in [1/(1+up), 1/(1+down)].
		g := final[t]
		need := max(0, 1/(g*(1.1-certainty))-1-down) + max(0, up-(1/(g*(0.9+certainty))-1))
		if need == 0 {
			return true
		}
		left := max(0, budget-n)
		if !sorted {
			// Deciding a class narrows up − down by at most its open mass.
			// Only the classes that could close a share of the gap are
			// worth ordering.
			keys, sorted = sc.keys[:0], true
			for _, k := range sc.keys {
				if k.key >= need/float64(2*budget) {
					keys = append(keys, k)
				}
			}
			slices.SortFunc(keys, func(a, b laneKey) int { return cmp.Compare(b.key, a.key) })
			open := 0.0
			for _, k := range keys[:min(len(keys), left)] {
				open += k.key
			}
			if !(open >= need) {
				return false
			}
		}
		lanes = sc.lanes[:0]
		for len(lanes) < min(max(4, n), left) && len(keys) > 0 {
			lanes, keys = append(lanes, keys[0].class), keys[1:]
		}
		if len(lanes) == 0 {
			return false
		}
	}
}

// ranked checks the top-1 class t and looks for the witness over the
// current intervals (a decided class's is its exact score).
func (s *macStep) ranked(t int, softmax bool) (top, witness bool) {
	sc, final := s.sc, s.ctx.Final
	et := sc.lo[t]
	for c := range s.chans {
		if sc.decided[c] {
			if math.IsNaN(sc.lo[c]) || math.IsInf(sc.lo[c], 0) {
				return false, false
			}
			g := final[c]
			if softmax {
				g = s.golden[c]
			}
			witness = witness || !bitsEqual(sc.lo[c], g)
		}
		if v := sc.hi[c]; c != t && !(et > v+0x1p-40*(1+math.Abs(et)+math.Abs(v))) {
			return false, false
		}
	}
	return true, witness
}

// mass bounds Σ_{c≠t} exp(s_c − s_t) over the current intervals, with s_t
// exact: from above by the upper ends, from below by the lower ends. With
// keys set it also lists in sc.keys each undecided class's open mass, the
// difference of its two terms.
func (s *macStep) mass(t int, keys bool) (up, down float64) {
	sc := s.sc
	et := sc.lo[t]
	if keys {
		sc.keys = sc.keys[:0]
	}
	for c := range s.chans {
		if c == t {
			continue
		}
		hi, lo := softmaxTerm(sc.hi[c]-et), math.Exp(sc.lo[c]-et)
		up, down = up+hi, down+lo
		if keys && !sc.decided[c] {
			sc.keys = append(sc.keys, laneKey{key: hi - lo, class: c})
		}
	}
	return up, down
}

// softmaxTerm is an upper bound of exp(x) for x ≤ 0 that skips the
// exponential where it is below binary64's resolution of a sum of at least 1.
func softmaxTerm(x float64) float64 {
	if x < -37 {
		return 0x1p-52 // > e^-37
	}
	return math.Exp(x)
}
