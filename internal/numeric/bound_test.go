package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkLaneBound walks one lane's golden and faulty chains with the
// reference MACq — bias, weights w, golden inputs gx, faulty inputs lx — and
// holds every partial's |faulty − golden| to LaneBound over the taps where
// lx differs from gx. An unbounded (+Inf) lane proves nothing and passes;
// bounded reports whether the lane was held to a finite bound.
func checkLaneBound(dt Type, bias float64, w, gx, lx []float64) (bounded bool, err error) {
	var steps []int
	var dx []float64
	for j := range gx {
		if math.Float64bits(lx[j]) != math.Float64bits(gx[j]) {
			steps = append(steps, j)
			dx = append(dx, lx[j]-gx[j])
		}
	}
	if len(steps) == 0 {
		return false, nil
	}
	golden := []float64{bias}
	for j := range w {
		golden = append(golden, dt.MACq(golden[j], w[j], gx[j]))
	}
	lo, hi, _ := ChainBounds(golden, make([]float64, len(w)))
	b := dt.LaneBound(NormsOf(w), NormsOf(dx), max(-lo, hi), len(w)-steps[0], len(steps))
	if math.IsInf(b, 1) {
		return false, nil
	}
	f := bias
	for j := range w {
		f = dt.MACq(f, w[j], lx[j])
		if d := math.Abs(f - golden[j+1]); !(d <= b) {
			return true, fmt.Errorf("%s: partial %d of %d differs by %g, bound %g (changed %v, |golden| ≤ %g, norm part %g)",
				dt, j+1, len(w), d, b, steps, max(-lo, hi), min(NormsOf(w).L2*NormsOf(dx).L2, NormsOf(w).L1*NormsOf(dx).Inf, NormsOf(w).Inf*NormsOf(dx).L1))
		}
	}
	return true, nil
}

// TestLaneBound holds LaneBound to random lanes of every format: operands
// across the whole range (saturating fixed-point chains and overflowing
// float ones included, which must come back unbounded), changed taps that
// move by a fresh draw, and changed taps that move by a few units in the
// last place, where the rounding slack — not the norm part — carries the
// bound.
func TestLaneBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dt := range Types {
		bounded := 0
		for trial := 0; trial < 20000; trial++ {
			scale := math.Ldexp(1, rng.Intn(40)-30) * math.Min(dt.MaxValue(), 64)
			if trial%8 == 0 {
				scale = math.Sqrt(dt.MaxValue()) * math.Ldexp(1, rng.Intn(8)-4)
			}
			draw := func() float64 { return dt.Quantize((rng.Float64()*2 - 1) * scale) }
			chain := 1 + rng.Intn(40)
			w, gx, lx := make([]float64, chain), make([]float64, chain), make([]float64, chain)
			for j := range w {
				w[j], gx[j] = draw(), draw()
				lx[j] = gx[j]
				switch rng.Intn(6) {
				case 0:
					lx[j] = draw()
				case 1:
					lx[j] = dt.Quantize(gx[j] * (1 + math.Ldexp(float64(rng.Intn(7)-3), -rng.Intn(30))))
				}
			}
			ok, err := checkLaneBound(dt, draw(), w, gx, lx)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if ok {
				bounded++
			}
		}
		if bounded < 10000 {
			t.Errorf("%s: %d of 20000 trials bounded, want most", dt, bounded)
		}
	}
}

// FuzzLaneBound decodes bytes into a format, a lane's bias and weight row,
// golden inputs and a changed set with faulty values, from the same table
// of awkward magnitudes as FuzzChainReplayLanes, and holds every partial to
// LaneBound.
func FuzzLaneBound(f *testing.F) {
	f.Add([]byte{0, 16, 0x01, 0x28, 0x02, 0x28, 0x03, 0x29})
	f.Add([]byte{2, 7, 0x12, 0x20, 0x34, 0x28, 0x56, 0x30, 0x07, 0x31})
	f.Add([]byte{5, 31, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add([]byte{3, 3, 0x03, 0x3f, 0x03, 0x3f, 0x83, 0x3f, 0x03, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		dt := Types[int(next())%len(Types)]
		chain := 1 + int(next())%40
		bases := []float64{0, 1, 3, dt.MaxValue(), maxFloat16, 0x1p-14, 0x1p-24, 1 + 0x1p-10, math.Inf(1), hwNaN}
		value := func() float64 {
			b, e := next(), next()
			v := bases[int(b&0x7f)%len(bases)] * math.Ldexp(1, int(e&0x3f)-40)
			if b&0x80 != 0 && v == v {
				v = -v
			}
			return dt.Quantize(v)
		}
		bias := value()
		w, gx, lx := make([]float64, chain), make([]float64, chain), make([]float64, chain)
		for j := range w {
			w[j], gx[j] = value(), value()
			lx[j] = gx[j]
			if next()&3 == 0 {
				lx[j] = value()
			}
		}
		if _, err := checkLaneBound(dt, bias, w, gx, lx); err != nil {
			t.Fatal(err)
		}
	})
}
