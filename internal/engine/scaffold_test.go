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
// contract rests on, for both draw-unit sizes (one bit, the whole word):
// over all shards of any partition width, Phase.Each visits every draw unit
// of the phase exactly once, in order within a shard, with the input cycle
// (InputBase counts units) and the table's cell attached — one-bit units
// carry the table's (block, bit) or (−1, −1), whole-word units (block, 0) —
// and NBits sums to the phase's N with only the last unit carrying the
// remainder.
func TestPhaseIteratorsPartition(t *testing.T) {
	const blocks, width = 3, 16
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		for _, unitBits := range []int{1, width} {
			n, of, inputs, base := rng.Intn(200), 1+rng.Intn(9), 1+rng.Intn(4), rng.Intn(50)
			ph := Phase{N: n, UnitBits: unitBits, InputBase: base}
			units := DrawUnits(n, unitBits)
			if trial%2 == 1 && units > 0 {
				ph.Table = BuildStratumTable(randomStrata(rng, blocks, width), units, unitBits)
			}
			seen, total := make([]int, units), 0
			for shard := 0; shard < of; shard++ {
				last := -1
				ph.Each(shard, of, inputs, func(u Unit) {
					if u.Index <= last || u.Index%of != shard {
						t.Fatalf("shard %d/%d visited unit %d after %d", shard, of, u.Index, last)
					}
					last = u.Index
					seen[u.Index]++
					total += u.NBits
					want := Unit{Index: u.Index, Input: (base + u.Index) % inputs, Block: -1, Bit: -1, NBits: unitBits}
					if u.Index == units-1 {
						want.NBits = n - u.Index*unitBits
					}
					if unitBits > 1 {
						want.Bit = 0
					}
					if ph.Table != nil {
						var cell int
						want.Block, cell = ph.Table.Stratum(u.Index)
						if unitBits == 1 {
							want.Bit = cell
						} else if cell != 0 {
							t.Fatalf("whole-word table placed unit %d at cell %d of its block", u.Index, cell)
						}
					}
					if u != want || u.NBits < 1 {
						t.Fatalf("N=%d bits=%d shard %d/%d: unit %+v, want %+v", n, unitBits, shard, of, u, want)
					}
				})
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("N=%d bits=%d of=%d: unit %d visited %d times", n, unitBits, of, i, c)
				}
			}
			if total != n {
				t.Fatalf("N=%d bits=%d: units cover %d injections", n, unitBits, total)
			}
		}
	}
}
