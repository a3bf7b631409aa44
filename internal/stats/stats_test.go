package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// single is the one-stratum estimator of a uniform campaign's tally.
func single(successes, trials int) Stratified {
	return Stratified{Weights: []float64{1}, Parts: []Proportion{{Successes: successes, Trials: trials}}}
}

// waldCI95 is the reference binomial half-width z95·√(p̂(1−p̂)/n) the
// one-stratum estimator must reproduce bit for bit.
func waldCI95(successes, trials int) float64 {
	if trials == 0 {
		return 0
	}
	est := float64(successes) / float64(trials)
	return z95 * math.Sqrt(est*(1-est)/float64(trials))
}

func TestProportionP(t *testing.T) {
	p := Proportion{Successes: 30, Trials: 120}
	if got := p.P(); got != 0.25 {
		t.Errorf("P = %v, want 0.25", got)
	}
	if got := (Proportion{}).P(); got != 0 {
		t.Errorf("empty P = %v, want 0", got)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// p=0.5, n=100: CI = 1.96*sqrt(0.25/100) = 0.098.
	if got := single(50, 100).CI95(); math.Abs(got-0.098) > 1e-3 {
		t.Errorf("CI95 = %v, want ~0.098", got)
	}
	if got := single(0, 0).CI95(); got != 0 {
		t.Errorf("empty CI95 = %v, want 0", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small, large := single(5, 50), single(500, 5000)
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestPropertyCIBounds(t *testing.T) {
	// Property: 0 <= CI95 <= 1 and p ± CI stays a sane interval for any
	// successes <= trials.
	prop := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		e := single(int(s)%(trials+1), trials)
		ci := e.CI95()
		return ci >= 0 && ci <= 1 && e.P() >= 0 && e.P() <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMergedCountsMatchPooledCI is the distributed-campaign invariant:
// binomial counts merged shard-by-shard must yield exactly the point
// estimate and 95% CI of the pooled single-process counts, for any
// partition of the trials.
func TestMergedCountsMatchPooledCI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		succ := rng.Intn(n + 1)
		pooled := single(succ, n)

		// Split into a random number of shards by strided assignment —
		// the same partition shape faultinj.RunShard uses — and sum the
		// shard counts back up.
		shards := 1 + rng.Intn(16)
		parts := make([]Proportion, shards)
		for i := 0; i < n; i++ {
			s := i % shards
			parts[s].Trials++
			if i < succ { // which trials succeeded is irrelevant to counts
				parts[s].Successes++
			}
		}
		var sum Proportion
		for _, p := range parts {
			sum.Successes += p.Successes
			sum.Trials += p.Trials
		}
		merged := single(sum.Successes, sum.Trials)
		if sum != pooled.Parts[0] {
			t.Fatalf("merged %+v != pooled %+v", sum, pooled.Parts[0])
		}
		if math.Float64bits(merged.P()) != math.Float64bits(pooled.P()) {
			t.Fatalf("point estimates diverged")
		}
		if math.Float64bits(merged.CI95()) != math.Float64bits(pooled.CI95()) {
			t.Fatalf("CIs diverged: %v vs %v", merged.CI95(), pooled.CI95())
		}
	}
}

// TestBoundsEdgeCases pins the boundary behavior of Bounds: every interval
// is well-defined and clamped to [0, 1], with no NaNs and no degenerate
// zero-width intervals at n=0 (zero trials is total ignorance, so the
// interval is the vacuous [0, 1], not the misleading point [0, 0]).
func TestBoundsEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		e              Stratified
		wantLo, wantHi float64
		exact          bool
	}{
		{name: "n=0", e: single(0, 0), wantLo: 0, wantHi: 1, exact: true},
		{name: "p=0", e: single(0, 5), wantLo: 0, wantHi: 0, exact: true},
		{name: "p=1", e: single(5, 5), wantLo: 1, wantHi: 1, exact: true},
		{name: "interior", e: single(1, 2)},
	}
	for _, tc := range cases {
		lo, hi := tc.e.Bounds()
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Errorf("%s: bounds [%v,%v] contain NaN", tc.name, lo, hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("%s: bounds [%v,%v] malformed", tc.name, lo, hi)
		}
		if tc.exact && (lo != tc.wantLo || hi != tc.wantHi) {
			t.Errorf("%s: bounds [%v,%v], want [%v,%v]", tc.name, lo, hi, tc.wantLo, tc.wantHi)
		}
	}
}

// TestWilson95EdgeCases pins the Wilson interval at the same boundaries:
// unlike the normal approximation it must keep nonzero width at p̂=0 and
// p̂=1 (certainty from five trials is a lie) and yield [0, 1] at n=0.
func TestWilson95EdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		p     Proportion
		check func(lo, hi float64) bool
	}{
		{"n=0", Proportion{}, func(lo, hi float64) bool { return lo == 0 && hi == 1 }},
		{"p=0", Proportion{Successes: 0, Trials: 5}, func(lo, hi float64) bool { return lo == 0 && hi > 0 && hi < 1 }},
		{"p=1", Proportion{Successes: 5, Trials: 5}, func(lo, hi float64) bool { return hi == 1 && lo > 0 && lo < 1 }},
		{"n=1", Proportion{Successes: 1, Trials: 1}, func(lo, hi float64) bool { return lo > 0 && hi == 1 }},
	}
	for _, tc := range cases {
		lo, hi := tc.p.Wilson95()
		if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 1 || lo > hi {
			t.Errorf("%s: Wilson bounds [%v,%v] malformed", tc.name, lo, hi)
		}
		if !tc.check(lo, hi) {
			t.Errorf("%s: Wilson bounds [%v,%v] fail boundary condition", tc.name, lo, hi)
		}
	}
}

func TestWilson95KnownValue(t *testing.T) {
	// 5/10 successes: the standard Wilson 95% interval is (0.2366, 0.7634).
	lo, hi := Proportion{Successes: 5, Trials: 10}.Wilson95()
	if math.Abs(lo-0.2366) > 5e-4 || math.Abs(hi-0.7634) > 5e-4 {
		t.Errorf("Wilson95(5/10) = [%v,%v], want ~[0.2366,0.7634]", lo, hi)
	}
}

func TestStratifiedSingleStratumMatchesProportion(t *testing.T) {
	part := Proportion{Successes: 7, Trials: 40}
	s := single(part.Successes, part.Trials)
	if got := s.P(); math.Float64bits(got) != math.Float64bits(part.P()) {
		t.Errorf("single-stratum P = %v, want %v", got, part.P())
	}
	// With one full-weight stratum the plug-in variance reduces to the
	// binomial one, so the CI matches the reference formula bit for bit.
	if ci, want := s.CI95(), waldCI95(part.Successes, part.Trials); math.Float64bits(ci) != math.Float64bits(want) {
		t.Errorf("single-stratum CI = %v, want %v", ci, want)
	}
}

func TestStratifiedEdgeCases(t *testing.T) {
	// No sampled strata: vacuous estimate.
	s := Stratified{Weights: []float64{0.5, 0.5}, Parts: make([]Proportion, 2)}
	if p := s.P(); p != 0 {
		t.Errorf("unsampled P = %v", p)
	}
	if ci := s.CI95(); ci != 0 {
		t.Errorf("unsampled CI = %v", ci)
	}
	if lo, hi := s.Bounds(); lo != 0 || hi != 1 {
		t.Errorf("unsampled bounds [%v,%v], want [0,1]", lo, hi)
	}
	// One stratum unsampled: the other's weight renormalizes to 1.
	s.Parts[0] = Proportion{Successes: 2, Trials: 10}
	if p := s.P(); p != 0.2 {
		t.Errorf("renormalized P = %v, want 0.2", p)
	}
	// All-extreme strata must still produce finite, nonzero-width CIs.
	s.Parts[1] = Proportion{Successes: 10, Trials: 10}
	if ci := s.CI95(); math.IsNaN(ci) || ci <= 0 {
		t.Errorf("extreme-strata CI = %v", ci)
	}
	if lo, hi := s.Bounds(); math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 1 || lo > hi {
		t.Errorf("extreme-strata bounds [%v,%v]", lo, hi)
	}
}

// FuzzStratifiedEstimate checks the estimator on arbitrary designs: weights
// in [0, 1] (zeros included) and parts with 0 ≤ s ≤ n. The point estimate
// stays in [0, 1] exactly (rounding is monotone, so Σ W_h·p̂_h never
// exceeds Σ W_h), the half-width is finite and non-negative, the bounds are
// ordered inside [0, 1] and vacuous when no stratum has both weight and
// trials, and one weight-1 stratum is the reference Wald interval bit for
// bit.
func FuzzStratifiedEstimate(f *testing.F) {
	f.Add([]byte{}, uint16(7), uint16(40))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint16(0), uint16(0))
	f.Add([]byte{255, 3, 9, 128, 0, 0, 1, 1, 1}, uint16(5), uint16(5))
	f.Add([]byte{7, 200, 200, 0, 50, 3, 255, 255, 255}, uint16(0), uint16(3000))
	f.Fuzz(func(t *testing.T, design []byte, s, n uint16) {
		// Each three bytes are one stratum: weight/255, then trials and
		// successes folded into 0 ≤ s ≤ n.
		var e Stratified
		sampled := false
		for i := 0; i+2 < len(design); i += 3 {
			w := float64(design[i]) / 255
			trials := int(design[i+1])
			succ := int(design[i+2]) % (trials + 1)
			e.Weights = append(e.Weights, w)
			e.Parts = append(e.Parts, Proportion{Successes: succ, Trials: trials})
			sampled = sampled || (w > 0 && trials > 0)
		}
		p, ci := e.P(), e.CI95()
		lo, hi := e.Bounds()
		if !(p >= 0 && p <= 1) {
			t.Fatalf("P = %v outside [0,1] for %+v", p, e)
		}
		if math.IsNaN(ci) || math.IsInf(ci, 0) || ci < 0 {
			t.Fatalf("CI95 = %v for %+v", ci, e)
		}
		if !(0 <= lo && lo <= hi && hi <= 1) {
			t.Fatalf("bounds [%v,%v] malformed for %+v", lo, hi, e)
		}
		if !sampled && (lo != 0 || hi != 1) {
			t.Fatalf("unsampled design %+v has bounds [%v,%v], want [0,1]", e, lo, hi)
		}

		trials := int(n)
		succ := int(s) % (trials + 1)
		one := single(succ, trials)
		if got, want := one.CI95(), waldCI95(succ, trials); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("single stratum %d/%d: CI95 %v, reference %v", succ, trials, got, want)
		}
		if got, want := one.P(), (Proportion{Successes: succ, Trials: trials}).P(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("single stratum %d/%d: P %v, want %v", succ, trials, got, want)
		}
	})
}
