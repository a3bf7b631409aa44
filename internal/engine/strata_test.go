package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sdc"
)

// randomStrata builds a pooled pilot summary with random tallies.
func randomStrata(rng *rand.Rand, blocks, bits int) *StrataSummary {
	w := make(HexFloats, blocks*bits)
	per := 1 / float64(blocks*bits)
	for h := range w {
		w[h] = per
	}
	s := NewStrata(blocks, bits, w, false)
	for h := range s.Counts {
		n := rng.Intn(30)
		x := 0
		if n > 0 {
			x = rng.Intn(n + 1)
		}
		setTally(&s.Counts[h], n, x)
	}
	return s
}

// setTally records n pilot injections with x SDC-1 hits in one stratum.
func setTally(c *sdc.Counts, n, x int) {
	c.Trials = n
	for k := range c.DefinedTrials {
		c.DefinedTrials[k] = n
		c.Hits[k] = 0
	}
	c.Hits[sdc.SDC1] = x
}

// checkTable builds the allocation of units draw units of group strata each
// and checks everything a table must be whatever the pilot said: the cell
// grid is the stratum grid folded group-to-one, a cell's weight pools its
// strata's positive weights (a one-stratum cell's is the stratum's, bit for
// bit), Alloc sums exactly to units, never gives a zero-weight cell anything
// and gives every eligible cell at least one unit when the budget allows,
// Stratum lays the allocation out contiguously in cell order and refuses
// unit MainN, and the table is a pure function of its arguments that
// survives the lease's JSON hop byte for byte.
func checkTable(t *testing.T, s *StrataSummary, units, group int) *StratumTable {
	t.Helper()
	tab := BuildStratumTable(s, units, group)
	cells := s.Blocks * s.Bits / group
	if tab.Blocks != s.Blocks || tab.Bits != s.Bits/group || tab.MainN != units ||
		len(tab.Alloc) != cells || len(tab.Weight) != cells {
		t.Fatalf("group %d: table is %dx%d for %d units with %d/%d cells, strata are %dx%d",
			group, tab.Blocks, tab.Bits, tab.MainN, len(tab.Alloc), len(tab.Weight), s.Blocks, s.Bits)
	}
	sum, eligible := 0, 0
	for c, a := range tab.Alloc {
		w := 0.0
		for h := c * group; h < (c+1)*group; h++ {
			if s.Weight[h] > 0 {
				w += s.Weight[h]
			}
		}
		if group == 1 {
			w = s.Weight[c]
		}
		if math.Float64bits(tab.Weight[c]) != math.Float64bits(w) {
			t.Fatalf("group %d: cell %d weighs %v, its strata pool to %v", group, c, tab.Weight[c], w)
		}
		switch {
		case w > 0:
			eligible++
		case a != 0:
			t.Fatalf("group %d: zero-weight cell %d allocated %d units", group, c, a)
		}
		if a < 0 {
			t.Fatalf("group %d: cell %d has negative allocation %d", group, c, a)
		}
		sum += a
	}
	want := units
	if eligible == 0 {
		want = 0
	}
	if sum != want {
		t.Fatalf("group %d: alloc sums to %d over %d eligible cells, want %d", group, sum, eligible, want)
	}
	if units >= eligible {
		for c, a := range tab.Alloc {
			if tab.Weight[c] > 0 && a == 0 {
				t.Fatalf("group %d: eligible cell %d got no units (budget %d ≥ %d)", group, c, units, eligible)
			}
		}
	}

	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back StratumTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if again, _ := json.Marshal(&back); !bytes.Equal(again, data) {
		t.Fatalf("group %d: table changed across a JSON round trip:\n%s\n%s", group, data, again)
	}
	if again, _ := json.Marshal(BuildStratumTable(s.Clone(), units, group)); !bytes.Equal(again, data) {
		t.Fatalf("group %d: rebuilding the table changed it:\n%s\n%s", group, data, again)
	}

	if sum == units {
		seen := make([]int, cells)
		for j := 0; j < units; j++ {
			block, cell := tab.Stratum(j)
			if b2, c2 := back.Stratum(j); b2 != block || c2 != cell {
				t.Fatalf("group %d: Stratum(%d) is (%d,%d), (%d,%d) after the round trip", group, j, block, cell, b2, c2)
			}
			if block < 0 || block >= tab.Blocks || cell < 0 || cell >= tab.Bits {
				t.Fatalf("group %d: Stratum(%d) = (%d,%d) outside the %dx%d grid", group, j, block, cell, tab.Blocks, tab.Bits)
			}
			seen[block*tab.Bits+cell]++
		}
		for c := range seen {
			if seen[c] != tab.Alloc[c] {
				t.Fatalf("group %d: cell %d covered %d times, alloc %d", group, c, seen[c], tab.Alloc[c])
			}
		}
	}
	mustPanic(t, "Stratum(MainN)", func() { tab.Stratum(tab.MainN) })
	return tab
}

// TestBuildStratumTableInvariants runs checkTable over random pilots for
// both draw-unit sizes — one stratum per cell, one block per cell —
// occasionally with a block the design never strikes.
func TestBuildStratumTableInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		blocks := 1 + rng.Intn(6)
		bits := []int{16, 32, 64}[rng.Intn(3)]
		s := randomStrata(rng, blocks, bits)
		dead := -1
		if blocks > 1 && rng.Intn(3) == 0 {
			dead = rng.Intn(blocks)
			for bit := 0; bit < bits; bit++ {
				s.Weight[dead*bits+bit] = 0
			}
		}
		for _, group := range []int{1, bits} {
			// Whole-word budgets are small enough to starve cells; per-bit
			// ones straddle the cell count too.
			units := rng.Intn(200 * bits / group)
			tab := checkTable(t, s, units, group)
			if dead >= 0 {
				for c := dead * tab.Bits; c < (dead+1)*tab.Bits; c++ {
					if tab.Alloc[c] != 0 || tab.Weight[c] != 0 {
						t.Fatalf("trial %d group %d: dead block's cell %d has weight %v, %d units", trial, group, c, tab.Weight[c], tab.Alloc[c])
					}
				}
			}
		}
	}
	mustPanic(t, "nil strata", func() { BuildStratumTable(nil, 10, 1) })
	mustPanic(t, "group that does not tile the word", func() { BuildStratumTable(randomStrata(rng, 2, 16), 10, 5) })
}

// TestBuildStratumTableDeterministic pins the table as a pure function of
// (strata, units, group).
func TestBuildStratumTableDeterministic(t *testing.T) {
	s := randomStrata(rand.New(rand.NewSource(67)), 5, 16)
	for _, group := range []int{1, 16} {
		a := BuildStratumTable(s, 137, group)
		b := BuildStratumTable(s.Clone(), 137, group)
		for c := range a.Alloc {
			if a.Alloc[c] != b.Alloc[c] {
				t.Fatalf("group %d: alloc diverged at cell %d: %d vs %d", group, c, a.Alloc[c], b.Alloc[c])
			}
		}
	}
}

// TestMarginalEstimatesRecombine checks the per-bit and per-block marginals
// against the whole-campaign estimate they are slices of: with every
// stratum sampled, Σ_bit W_bit·BitEstimate(bit).P() equals Estimate().P()
// under any weights, and Σ_block W_block·BlockEstimate(block).P() equals it
// wherever each block spreads its mass evenly over its bits — the design
// BlockEstimate assumes, which a multi-bit upset's grid is not.
func TestMarginalEstimatesRecombine(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		blocks, bits := 1+rng.Intn(8), []int{16, 32, 64}[rng.Intn(3)]
		mbu := 1
		if trial%2 == 1 {
			mbu = 2 + rng.Intn(2) // the top mbu−1 base-bit strata weigh zero
		}
		mass := make([]float64, blocks)
		var total float64
		for b := range mass {
			mass[b] = rng.Float64() + 0.01
			total += mass[b]
		}
		s := randomStrata(rng, blocks, bits)
		s.Weight = StratumGrid(blocks, bits, mbu, func(b, valid int) float64 {
			return mass[b] / total / float64(valid)
		})
		for h := range s.Counts {
			n := 1 + rng.Intn(30)
			setTally(&s.Counts[h], n, rng.Intn(n+1))
		}
		want := s.Estimate(sdc.SDC1).P()

		var byBit float64
		for bit := 0; bit < bits; bit++ {
			var w float64
			for b := 0; b < blocks; b++ {
				w += s.Weight[b*bits+bit]
			}
			byBit += w * s.BitEstimate(bit, sdc.SDC1).P()
		}
		if math.Abs(byBit-want) > 1e-12 {
			t.Fatalf("trial %d (%dx%d, mbu %d): bit marginals recombine to %v, campaign estimate %v", trial, blocks, bits, mbu, byBit, want)
		}
		if mbu > 1 {
			continue
		}
		var byBlock float64
		for b := 0; b < blocks; b++ {
			byBlock += mass[b] / total * s.BlockEstimate(b, sdc.SDC1).P()
		}
		if math.Abs(byBlock-want) > 1e-12 {
			t.Fatalf("trial %d (%dx%d): block marginals recombine to %v, campaign estimate %v", trial, blocks, bits, byBlock, want)
		}
	}
}

// FuzzStratumTable runs checkTable over arbitrary grids, budgets and pilots.
// data scripts the strata, three bytes each (cycled): the weight — 0 is a
// stratum outside the design, 1 the −0 a decoded summary may carry —
// the pilot's trials and its SDC-1 hits.
func FuzzStratumTable(f *testing.F) {
	f.Add(uint8(2), uint8(4), false, uint16(100), []byte{8, 10, 0, 8, 10, 5, 0, 0, 0})
	f.Add(uint8(5), uint8(16), true, uint16(3), []byte{1, 0, 0, 200, 29, 29})
	f.Add(uint8(3), uint8(64), true, uint16(500), []byte{})
	f.Add(uint8(1), uint8(1), false, uint16(0), []byte{255})
	f.Fuzz(func(t *testing.T, blocks, bits uint8, whole bool, units uint16, data []byte) {
		nb, nbits := 1+int(blocks)%8, 1+int(bits)%64
		read := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			read++
			return int(data[(read-1)%len(data)])
		}
		s := NewStrata(nb, nbits, make(HexFloats, nb*nbits), false)
		for h := range s.Counts {
			switch w := next(); w {
			case 0:
			case 1:
				s.Weight[h] = math.Copysign(0, -1)
			default:
				s.Weight[h] = float64(w) / 4096
			}
			n := next()
			setTally(&s.Counts[h], n, next()%(n+1))
		}
		if err := s.Check(nb, nbits, false); err != nil {
			t.Fatalf("scripted strata are malformed: %v", err)
		}
		group := 1
		if whole {
			group = nbits
		}
		checkTable(t, s, int(units), group)
	})
}

// TestStrataCheckRefusesForgedTallies: a summary of the right shape whose
// tallies no injection could have produced — negative hits over no defined
// trials, the forgery that turns every allocation-table cell to ≈ −9·10¹⁸ —
// is refused at the gate, not built into a table.
func TestStrataCheckRefusesForgedTallies(t *testing.T) {
	s := NewStrata(2, 4, HexFloats{1, 1, 1, 1, 1, 1, 1, 1}, false)
	setTally(&s.Counts[3], 10, 4)
	if err := s.Check(2, 4, false); err != nil {
		t.Fatalf("honest strata refused: %v", err)
	}
	s.Counts[5].Hits[sdc.SDC1] = -1_000_000
	if err := s.Check(2, 4, false); err == nil {
		t.Fatal("stratum with -1e6 SDC-1 hits over 0 defined trials passed Check")
	}
}
