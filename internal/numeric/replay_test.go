package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// laneCase is one ChainReplay problem: lanes of one chain length that read
// the same inputs through per-lane weights and biases, laid out as the
// layers lay them out (lane rows `rows` chain rows apart, the rows between
// poisoned so a mis-strided read shows).
type laneCase struct {
	dt           Type
	chain, rows  int
	bias, qw     []float64 // per lane; per lane × tap
	gx, lx       []float64 // golden and faulty quantized inputs
	steps        []int     // changed taps, ascending; lx may equal gx there
	prefix, prod []float64
	bounds       []float64 // per lane row: ChainBounds lo, hi
}

func (c *laneCase) lanes() int { return len(c.bias) }

// fill computes the golden internals the way the layers' fillChain and
// layerChains.fill do: product-quantize, then accumulate-quantize on a grid
// accumulator, then the chain's bounds.
func (c *laneCase) fill() {
	n, ps, ds := c.lanes(), c.rows*(c.chain+1), c.rows*c.chain
	c.prefix = make([]float64, n*ps)
	c.prod = make([]float64, n*ds)
	c.bounds = make([]float64, n*2*c.rows)
	for _, s := range [][]float64{c.prefix, c.prod, c.bounds} {
		for i := range s {
			s[i] = math.NaN()
		}
	}
	quant, accf := c.dt.QuantFunc(), c.dt.AccFunc()
	for l := 0; l < n; l++ {
		acc := c.bias[l]
		c.prefix[l*ps] = acc
		for j := 0; j < c.chain; j++ {
			p := quant(c.qw[l*c.chain+j] * c.gx[j])
			c.prod[l*ds+j] = p
			acc = accf(acc, p)
			c.prefix[l*ps+j+1] = acc
		}
		b := 2 * c.rows * l
		c.bounds[b], c.bounds[b+1] = ChainBounds(c.prefix[l*ps:l*ps+c.chain+1], c.prod[l*ds:l*ds+c.chain])
	}
}

// scalarReplay is the oracle: lane l's whole chain over the faulty inputs,
// one reference MACq per tap.
func (c *laneCase) scalarReplay(l int) float64 {
	acc := c.bias[l]
	for j := 0; j < c.chain; j++ {
		acc = c.dt.MACq(acc, c.qw[l*c.chain+j], c.lx[j])
	}
	return acc
}

// xs returns the faulty input at each changed tap.
func (c *laneCase) xs() []float64 {
	xs := make([]float64, len(c.steps))
	for i, j := range c.steps {
		xs[i] = c.lx[j]
	}
	return xs
}

// check replays the case through ChainReplay and returns the first lane
// that differs from the oracle in any bit — NaN sign and payload included,
// which is what both call sites compare against golden.
func (c *laneCase) check() error {
	got := make([]float64, c.lanes())
	c.dt.ChainReplay(got, c.prefix, c.prod, c.qw, c.bounds, c.rows, c.steps, c.xs(), c.chain)
	for l := range got {
		want := c.scalarReplay(l)
		if math.Float64bits(got[l]) != math.Float64bits(want) {
			return fmt.Errorf("%s chain %d, %d lanes, rows %d, changed %v: lane %d = %x, scalar replay = %x",
				c.dt, c.chain, c.lanes(), c.rows, c.steps, l, math.Float64bits(got[l]), math.Float64bits(want))
		}
	}
	return nil
}

// randomLaneCase draws a case with operands uniform in ±scale (quantized)
// and each tap changed with probability density.
func randomLaneCase(rng *rand.Rand, dt Type, lanes, chain, rows int, scale float64, density float64) *laneCase {
	draw := func() float64 { return dt.Quantize((rng.Float64()*2 - 1) * scale) }
	c := &laneCase{dt: dt, chain: chain, rows: rows}
	for l := 0; l < lanes; l++ {
		c.bias = append(c.bias, draw())
		for j := 0; j < chain; j++ {
			c.qw = append(c.qw, draw())
		}
	}
	for j := 0; j < chain; j++ {
		c.gx = append(c.gx, draw())
		c.lx = append(c.lx, c.gx[j])
		if rng.Float64() < density {
			c.lx[j] = draw()
			c.steps = append(c.steps, j)
		}
	}
	c.fill()
	return c
}

// TestChainReplayBitIdentical is the contract of replay.go: for every
// format, replaying lane groups against cached golden internals — from any
// subset of changed taps, any lane count (whole groups and tails of 1–3),
// either row stride — must reproduce the scalar MACq replay of every lane's
// chain bit for bit.
func TestChainReplayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dt := range Types {
		// Magnitudes over 2^[-29,14] times two bases, alternating. Against
		// the format's range, operands in the top third of the band are
		// beyond it: fixed-point lanes saturate, float operands — Double's
		// included — are ±Inf, and accumulators run through Inf−Inf into
		// NaN. Against the square root of the range it is the products that
		// cross: from flushing to zero (Float16 through its subnormals) over
		// finite sums to overflow. Changed sets from empty to every tap.
		for trial := 0; trial < 6000; trial++ {
			base := dt.MaxValue()
			if trial%2 == 1 {
				base = math.Sqrt(base)
			}
			scale := math.Ldexp(1, rng.Intn(44)-29) * base
			density := []float64{0, 0.05, 0.25, 0.5, 1}[rng.Intn(5)]
			c := randomLaneCase(rng, dt, 1+rng.Intn(10), 1+rng.Intn(24), 1+2*rng.Intn(2), scale, density)
			if err := c.check(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}

		// One lane re-converges at once (zero weights at the changed taps
		// leave its products where they were) while its neighbours, moved
		// by an order of magnitude, never do: the group may not skip, and
		// the converged lane must ride along on golden products unharmed.
		// Every position of the quiet lane in a group, tails included.
		for lanes := 1; lanes <= 7; lanes++ {
			for quiet := 0; quiet < lanes; quiet++ {
				c := randomLaneCase(rng, dt, lanes, 20, 1, math.Min(dt.MaxValue(), 8)/8, 0)
				c.steps = []int{3, 4, 11}
				for _, j := range c.steps {
					c.lx[j] = dt.Quantize(c.gx[j] + math.Min(dt.MaxValue(), 8)/2)
					c.qw[quiet*c.chain+j] = 0
				}
				c.fill()
				if err := c.check(); err != nil {
					t.Fatalf("quiet lane %d of %d: %v", quiet, lanes, err)
				}
			}
		}

		// Every lane re-converges between two changed taps (the second
		// change undoes nothing; the first is below every format's
		// resolution but Double's, or is absorbed by saturation — overflow
		// for floats — on the even trials' magnitudes), so the joint skip is
		// taken and must land on the right partial of every lane.
		for trial := 0; trial < 200; trial++ {
			scale := dt.MaxValue() / 4
			if trial%2 == 1 {
				scale = math.Sqrt(dt.MaxValue())
			}
			c := randomLaneCase(rng, dt, 1+rng.Intn(8), 24, 1, scale, 0)
			c.steps = []int{2, 17}
			c.lx[2] = dt.Quantize(c.gx[2] * (1 + 0x1p-30))
			c.lx[17] = dt.Quantize(-c.gx[17])
			if err := c.check(); err != nil {
				t.Fatalf("joint skip trial %d: %v", trial, err)
			}
		}

		if !dt.IsFloat() {
			continue
		}
		// Non-finite operands: two faulty inputs of ±Inf or NaN. Lane 0 meets
		// them through its random weights; every other lane weighs the two
		// taps with opposite signs, so ±Inf becomes Inf−Inf; lane 2 weighs
		// them by ±0, so ±Inf becomes 0·Inf.
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), hwNaN} {
			for lanes := 1; lanes <= 6; lanes++ {
				c := randomLaneCase(rng, dt, lanes, 12, 1, 4, 0)
				c.steps = []int{5, 9}
				c.lx[5], c.lx[9] = bad, bad
				for l := 1; l < lanes; l++ {
					c.qw[l*c.chain+9] = -c.qw[l*c.chain+5]
				}
				if lanes > 2 {
					c.qw[2*c.chain+5], c.qw[2*c.chain+9] = 0, math.Copysign(0, -1)
				}
				c.fill()
				if err := c.check(); err != nil {
					t.Fatalf("operand %v: %v", bad, err)
				}
			}
		}
	}
}

// TestChainReplayClosedForm pins where the fixed-point closed form may and
// may not stand in for the walk, on hand-built 16b_rb10 chains (satMax =
// 32767/1024, satMin = -32) whose inputs are exact grid values. The chain's
// lane (weights 1) sits at every position of groups of 1–4 lanes; the other
// lanes weigh the inputs by 1/2 and never come near saturation. Each case is
// held to the MACq oracle, and closedFx itself must report the path the
// case calls for: the boundary cases pin the non-strict check, the crossing
// case the running extreme (its final Δ is 0), the clamped golden chain the
// clamp flag.
func TestChainReplayClosedForm(t *testing.T) {
	dt := Fx16RB10
	fx := &fxGrids[dt]
	for _, tc := range []struct {
		name   string
		gx     []float64
		steps  []int
		lx     []float64 // faulty input at each changed tap
		closed bool
	}{
		// Golden partials 0 10 20 15 15; the faulty partial after tap 1 is
		// satMax itself.
		{"partial at satMax", []float64{10, 10, -5, 0}, []int{1}, []float64{10 + fx.satMax - 20}, true},
		// Golden partials 0 -10 -20 -15 -15; the faulty partial after tap 1
		// is satMin itself.
		{"partial at satMin", []float64{-10, -10, 5, 0}, []int{1}, []float64{-10 + fx.satMin + 20}, true},
		// Golden partials 0 10 20 25 25. +10 at tap 1 takes the faulty
		// partial to 30, then 35 — clamped to satMax — and -10 at tap 3
		// brings the final Δ back to 0: golden final + 0 is 25, the chain
		// ends at satMax - 10.
		{"crosses satMax mid-chain", []float64{10, 10, 5, 0}, []int{1, 3}, []float64{20, -10}, false},
		// Golden partials 0 20 satMax (clamped from 40) satMax-10 ditto:
		// lowering tap 0 by 15 un-clamps the faulty chain, which ends at 15,
		// not at golden final - 15.
		{"golden clamps mid-chain", []float64{20, 20, -10, 0}, []int{0}, []float64{5}, false},
		// Δ +2 at tap 1 and -2 at tap 3 cancel.
		{"cancelling taps", []float64{3, 4, 5, 6}, []int{1, 3}, []float64{6, 4}, true},
	} {
		for lanes := 1; lanes <= chainLanes; lanes++ {
			for at := 0; at < lanes; at++ {
				c := &laneCase{dt: dt, chain: len(tc.gx), rows: 1, gx: tc.gx, steps: tc.steps}
				c.lx = append([]float64(nil), tc.gx...)
				for i, j := range tc.steps {
					c.lx[j] = tc.lx[i]
				}
				for l := 0; l < lanes; l++ {
					c.bias = append(c.bias, 0)
					w := 0.5
					if l == at {
						w = 1
					}
					for range tc.gx {
						c.qw = append(c.qw, w)
					}
				}
				c.fill()
				if err := c.check(); err != nil {
					t.Fatalf("%s, lane %d of %d: %v", tc.name, at, lanes, err)
				}
				var out [chainLanes]float64
				got := closedFx(&out, fx, c.prefix, c.prod, c.qw, c.bounds, c.chain+1, c.chain, 2, lanes-1, c.steps, c.xs(), c.chain)
				if got != tc.closed {
					t.Errorf("%s, lane %d of %d: closed form taken = %v, want %v", tc.name, at, lanes, got, tc.closed)
				}
			}
		}
	}
}

// hwNaN is the NaN this machine's arithmetic produces for Inf−Inf and 0·Inf.
// Generated NaN operands are this one, so every NaN inside a case has one
// sign and payload and the strict bit comparison does not depend on which
// operand of a NaN+NaN add the hardware propagates.
var hwNaN = func() float64 {
	inf := []float64{math.Inf(1)}
	return inf[0] - inf[0]
}()

// FuzzChainReplayLanes decodes bytes into a format, a chain length, a lane
// count, a row stride, lane rows and a changed set, and holds ChainReplay to
// the scalar oracle. Values come from a table of each format's awkward
// magnitudes scaled by a byte-chosen power of two, so single-byte mutations
// move a lane across saturation, overflow and the subnormal boundary.
func FuzzChainReplayLanes(f *testing.F) {
	f.Add([]byte{0, 16, 4, 1, 0xff, 0x0f})
	f.Add([]byte{2, 7, 5, 3, 0x12, 0x80, 0x34, 0x81, 0x56, 0x82})
	f.Add([]byte{5, 31, 9, 1, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add([]byte{1, 1, 1, 2})
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
		chain, lanes, rows := 1+int(next())%40, 1+int(next())%9, 1+int(next())%3
		c := &laneCase{dt: dt, chain: chain, rows: rows}
		bases := []float64{0, 1, 3, dt.MaxValue(), maxFloat16, 0x1p-14, 0x1p-24, 1 + 0x1p-10, math.Inf(1), hwNaN}
		value := func() float64 {
			b, e := next(), next()
			v := bases[int(b&0x7f)%len(bases)] * math.Ldexp(1, int(e&0x3f)-40)
			if b&0x80 != 0 && v == v { // a NaN keeps hwNaN's sign
				v = -v
			}
			// Operands are grid values; a fixed-point grid has no NaN or Inf.
			return dt.Quantize(v)
		}
		for l := 0; l < lanes; l++ {
			c.bias = append(c.bias, value())
			for j := 0; j < c.chain; j++ {
				c.qw = append(c.qw, value())
			}
		}
		for j := 0; j < c.chain; j++ {
			c.gx = append(c.gx, value())
			c.lx = append(c.lx, c.gx[j])
			if next()&3 == 0 {
				c.lx[j] = value()
				c.steps = append(c.steps, j)
			}
		}
		c.fill()
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkChainReplay times the replay of 64 lanes (16 whole groups) per
// format, chain length and changed density, and reports ns per replayed tap
// — a lane-tap from the first changed tap on, which is what a replay that
// never re-converges walks. The changed inputs move by a whole unit, so
// lanes do not re-converge and the number is the steady-state cost of the
// loop body: latency-bound when each chain is its own dependency, close to
// throughput-bound in lane groups.
func BenchmarkChainReplay(b *testing.B) {
	const lanes = 64
	for _, dt := range []Type{Double, Float, Float16, Fx32RB10, Fx16RB10} {
		for _, chain := range []int{16, 128, 1152} {
			for _, d := range []struct {
				name    string
				changed func(chain int) int
			}{
				{"1tap", func(int) int { return 1 }},
				{"10pct", func(chain int) int { return (chain + 9) / 10 }},
				{"50pct", func(chain int) int { return chain / 2 }},
			} {
				b.Run(fmt.Sprintf("%s/chain%d/%s", dt, chain, d.name), func(b *testing.B) {
					rng := rand.New(rand.NewSource(5))
					c := randomLaneCase(rng, dt, lanes, chain, 1, 1, 0)
					for _, j := range rng.Perm(chain)[:d.changed(chain)] {
						c.lx[j] = dt.Quantize(c.gx[j] + 1)
						c.steps = append(c.steps, j)
					}
					sort.Ints(c.steps)
					xs, dst := c.xs(), make([]float64, lanes)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dt.ChainReplay(dst, c.prefix, c.prod, c.qw, c.bounds, 1, c.steps, xs, chain)
					}
					taps := float64(lanes * (chain - c.steps[0]))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/taps, "ns/tap")
				})
			}
		}
	}
}
