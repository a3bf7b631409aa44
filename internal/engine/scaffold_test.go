package engine

import (
	"math"
	"math/rand"
	"testing"
)

// fixedSource feeds rand.Rand a scripted Int63 sequence and counts draws.
// rand.Float64 is float64(Int63()) / 2^63, so Int63 = u·2^63 yields u.
type fixedSource struct {
	vals  []int64
	draws int
}

func (s *fixedSource) Int63() int64 { s.draws++; return s.vals[(s.draws-1)%len(s.vals)] }
func (s *fixedSource) Seed(int64)   {}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestResidencyRefusals: the sampler validates its weights once, for every
// surface that places upsets by residency.
func TestResidencyRefusals(t *testing.T) {
	mustPanic(t, "no MAC layers", func() { NewResidency(nil, nil, 16) })
	mustPanic(t, "override length mismatch", func() { NewResidency([]float64{1, 2, 3}, []float64{1, 2}, 16) })
	mustPanic(t, "negative weight", func() { NewResidency([]float64{1, -1, 3}, nil, 16) })
	mustPanic(t, "negative override", func() { NewResidency([]float64{1, 2}, []float64{1, -2}, 16) })
	mustPanic(t, "zero-sum weights", func() { NewResidency([]float64{0, 0}, nil, 16) })
	// The override replaces the MAC counts entirely.
	r := NewResidency([]float64{1, 1}, []float64{1, 3}, 16)
	if r.Prob(0) != 0.25 || r.Prob(1) != 0.75 {
		t.Fatalf("override ignored: %v %v", r.Prob(0), r.Prob(1))
	}
}

// TestResidencyPickBoundaries pins the cumulative pick at its edges: a
// draw exactly on a cumulative boundary belongs to the next layer, and a
// zero-weight layer is never struck.
func TestResidencyPickBoundaries(t *testing.T) {
	// quarter is u = 1/4; ulp is the spacing of the float64s just below it
	// (and wider than the spacing anywhere below 1/2).
	const quarter, ulp = int64(1) << 61, int64(1) << 10
	r := NewResidency([]float64{1, 1, 2}, nil, 16) // cum .25 .5 1
	for _, tc := range []struct {
		u    int64 // u·2^63
		want int
	}{
		{0, 0}, {quarter - ulp, 0}, {quarter, 1}, {2*quarter - ulp, 1}, {2 * quarter, 2}, {3 * quarter, 2},
	} {
		src := &fixedSource{vals: []int64{tc.u}}
		if got := r.Pick(rand.New(src)); got != tc.want || src.draws != 1 {
			t.Errorf("u=%d/2^63: picked layer %d with %d draws, want %d with 1", tc.u, got, src.draws, tc.want)
		}
	}
	gap := NewResidency([]float64{1, 0, 1}, nil, 16) // cum .5 .5 1
	if gap.Prob(1) != 0 {
		t.Fatalf("zero-weight layer has probability %v", gap.Prob(1))
	}
	for _, u := range []int64{2*quarter - ulp, 2 * quarter} {
		if got := gap.Pick(rand.New(&fixedSource{vals: []int64{u}})); got == 1 {
			t.Errorf("u=%d/2^63 struck the zero-weight layer", u)
		}
	}
}

// TestResidencyBits: a forced base bit consumes no randomness; a drawn one
// stays within the in-word spans; and the stratum grid gives every valid
// base bit of a layer an equal share of its probability and the top mbu−1
// none.
func TestResidencyBits(t *testing.T) {
	const width = 8
	for mbu := 1; mbu <= width; mbu++ {
		r := NewResidency([]float64{3, 1}, nil, width)
		src := &fixedSource{vals: []int64{1 << 40}}
		if got := r.DrawBit(rand.New(src), 5, mbu); got != 5 || src.draws != 0 {
			t.Fatalf("mbu %d: forced bit drew %d with %d PRNG draws", mbu, got, src.draws)
		}
		rng := rand.New(rand.NewSource(int64(mbu)))
		for i := 0; i < 200; i++ {
			if b := r.DrawBit(rng, -1, mbu); b < 0 || b+mbu > width {
				t.Fatalf("mbu %d: base bit %d leaves the %d-bit word", mbu, b, width)
			}
		}
		w := r.StratumWeights(mbu)
		if len(w) != 2*width {
			t.Fatalf("mbu %d: %d strata, want %d", mbu, len(w), 2*width)
		}
		valid, sum := width-mbu+1, 0.0
		for layer := 0; layer < 2; layer++ {
			for bit := 0; bit < width; bit++ {
				got, want := w[layer*width+bit], 0.0
				if bit < valid {
					want = r.Prob(layer) / float64(valid)
				}
				if got != want {
					t.Fatalf("mbu %d: stratum (%d,%d) weight %v, want %v", mbu, layer, bit, got, want)
				}
				sum += got
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("mbu %d: stratum weights sum to %v", mbu, sum)
		}
	}
}

// TestPhaseIteratorsPartition is the sharding property the bit-identity
// contract rests on: over all shards of any partition width, EachInjection
// visits every injection of the phase exactly once and EachUnit every draw
// unit exactly once, with the input cycle and the table's strata attached,
// and only the phase's last unit carries the remainder.
func TestPhaseIteratorsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n, of, inputs, base := rng.Intn(200), 1+rng.Intn(9), 1+rng.Intn(4), rng.Intn(50)
		ph := Phase{N: n, InputBase: base}
		if trial%2 == 1 && n > 0 {
			ph.Table = BuildStratumTable(randomStrata(rng, 3, 4), n)
		}
		seen := make([]int, n)
		for shard := 0; shard < of; shard++ {
			last := -1
			ph.EachInjection(shard, of, inputs, func(i, input, block, bit int) {
				if i <= last || i%of != shard {
					t.Fatalf("shard %d/%d visited injection %d after %d", shard, of, i, last)
				}
				last = i
				seen[i]++
				wb, wbit := -1, -1
				if ph.Table != nil {
					wb, wbit = ph.Table.Stratum(i)
				}
				if input != (base+i)%inputs || block != wb || bit != wbit {
					t.Fatalf("injection %d: input %d stratum (%d,%d), want %d (%d,%d)", i, input, block, bit, (base+i)%inputs, wb, wbit)
				}
			})
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("N=%d of=%d: injection %d visited %d times", n, of, i, c)
			}
		}

		ph.SiteBits = 1 + rng.Intn(16)
		units := DrawUnits(n, ph.SiteBits)
		ph.Table = nil
		if trial%2 == 1 && units > 0 {
			ph.Table = BuildSiteStratumTable(randomStrata(rng, 3, 4), units)
		}
		seenU, total := make([]int, units), 0
		for shard := 0; shard < of; shard++ {
			ph.EachUnit(shard, of, inputs, func(u, input, block, nbits int) {
				seenU[u]++
				total += nbits
				want := ph.SiteBits
				if u == units-1 {
					want = n - u*ph.SiteBits
				}
				wb := -1
				if ph.Table != nil {
					wb, _ = ph.Table.Stratum(u)
				}
				if u%of != shard || nbits != want || nbits < 1 || input != (base+u)%inputs || block != wb {
					t.Fatalf("unit %d of %d (shard %d/%d): nbits %d input %d block %d, want %d %d %d",
						u, units, shard, of, nbits, input, block, want, (base+u)%inputs, wb)
				}
			})
		}
		for u, c := range seenU {
			if c != 1 {
				t.Fatalf("N=%d bits=%d of=%d: unit %d visited %d times", n, ph.SiteBits, of, u, c)
			}
		}
		if total != n {
			t.Fatalf("N=%d bits=%d: units cover %d injections", n, ph.SiteBits, total)
		}
	}
}
