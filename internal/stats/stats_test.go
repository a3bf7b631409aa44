package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	p := Proportion{Successes: 50, Trials: 100}
	if got := p.CI95(); math.Abs(got-0.098) > 1e-3 {
		t.Errorf("CI95 = %v, want ~0.098", got)
	}
	if got := (Proportion{}).CI95(); got != 0 {
		t.Errorf("empty CI95 = %v, want 0", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := Proportion{Successes: 5, Trials: 50}
	large := Proportion{Successes: 500, Trials: 5000}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestProportionMerge(t *testing.T) {
	a := Proportion{Successes: 3, Trials: 10}
	b := Proportion{Successes: 7, Trials: 30}
	m := a.Merge(b)
	if m.Successes != 10 || m.Trials != 40 {
		t.Errorf("Merge = %+v", m)
	}
}

func TestProportionString(t *testing.T) {
	s := Proportion{Successes: 1, Trials: 4}.String()
	if s != "25.00% ±42.43%" {
		t.Errorf("String = %q", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2}
	for q, want := range cases {
		if got := Percentile(xs, q); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", q, got, want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 75); got != 7.5 {
		t.Errorf("Percentile(75) = %v, want 7.5", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(empty) did not panic")
		}
	}()
	Percentile(nil, 50)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.99, 10, -0.1, math.NaN()} {
		h.Add(v)
	}
	want := []int{2, 1, 1, 0, 1}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("Counts = %v, want %v", h.Counts, want)
			break
		}
	}
	if h.Under != 2 || h.Over != 1 {
		t.Errorf("Under=%d Over=%d, want 2,1", h.Under, h.Over)
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Errorf("BinCenter(4) = %v, want 9", got)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestPropertyCIBounds(t *testing.T) {
	// Property: 0 <= CI95 <= 1 and p ± CI stays a sane interval for any
	// successes <= trials.
	prop := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		succ := int(s) % (trials + 1)
		p := Proportion{Successes: succ, Trials: trials}
		ci := p.CI95()
		return ci >= 0 && ci <= 1 && p.P() >= 0 && p.P() <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHistogramConservesCount(t *testing.T) {
	prop := func(vals []float64) bool {
		h := NewHistogram(-1, 1, 8)
		for _, v := range vals {
			h.Add(v)
		}
		return h.Total() == len(vals)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
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
		pooled := Proportion{Successes: succ, Trials: n}

		// Split into a random number of shards by strided assignment —
		// the same partition shape faultinj.RunShard uses.
		shards := 1 + rng.Intn(16)
		parts := make([]Proportion, shards)
		for i := 0; i < n; i++ {
			s := i % shards
			parts[s].Trials++
			if i < succ { // which trials succeeded is irrelevant to counts
				parts[s].Successes++
			}
		}
		merged := MergeAll(parts...)
		if merged != pooled {
			t.Fatalf("merged %+v != pooled %+v", merged, pooled)
		}
		if math.Float64bits(merged.P()) != math.Float64bits(pooled.P()) {
			t.Fatalf("point estimates diverged")
		}
		if math.Float64bits(merged.CI95()) != math.Float64bits(pooled.CI95()) {
			t.Fatalf("CIs diverged: %v vs %v", merged.CI95(), pooled.CI95())
		}
	}
}

func TestMergeAllEmptyAndSingle(t *testing.T) {
	if got := MergeAll(); got != (Proportion{}) {
		t.Errorf("empty merge = %+v", got)
	}
	p := Proportion{Successes: 3, Trials: 10}
	if got := MergeAll(p); got != p {
		t.Errorf("single merge = %+v", got)
	}
}

// TestBoundsEdgeCases pins the boundary behavior of Bounds: every interval
// is well-defined and clamped to [0, 1], with no NaNs and no degenerate
// zero-width intervals at n=0 (zero trials is total ignorance, so the
// interval is the vacuous [0, 1], not the misleading point [0, 0]).
func TestBoundsEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		p              Proportion
		wantLo, wantHi float64
		exact          bool
	}{
		{name: "n=0", p: Proportion{}, wantLo: 0, wantHi: 1, exact: true},
		{name: "p=0", p: Proportion{Successes: 0, Trials: 5}, wantLo: 0, wantHi: 0, exact: true},
		{name: "p=1", p: Proportion{Successes: 5, Trials: 5}, wantLo: 1, wantHi: 1, exact: true},
		{name: "interior", p: Proportion{Successes: 1, Trials: 2}},
	}
	for _, tc := range cases {
		lo, hi := tc.p.Bounds()
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
	s := Stratified{Weights: []float64{1}, Parts: []Proportion{part}}
	if got := s.P(); math.Float64bits(got) != math.Float64bits(part.P()) {
		t.Errorf("single-stratum P = %v, want %v", got, part.P())
	}
	// With one full-weight stratum the plug-in variance reduces to the
	// binomial one, so the CI matches Proportion.CI95 bit for bit.
	if ci := s.CI95(); math.Float64bits(ci) != math.Float64bits(part.CI95()) {
		t.Errorf("single-stratum CI = %v, want %v", ci, part.CI95())
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

// TestStratifiedMergeMatchesPooled is the stratified analogue of
// TestMergedCountsMatchPooledCI: per-stratum counts pooled shard-by-shard
// must yield bit-identical estimates to pooling all trials at once,
// regardless of the partition.
func TestStratifiedMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weights := []float64{0.7, 0.2, 0.1}
	for trial := 0; trial < 100; trial++ {
		pooled := Stratified{Weights: weights, Parts: make([]Proportion, len(weights))}
		for h := range pooled.Parts {
			n := 1 + rng.Intn(500)
			pooled.Parts[h] = Proportion{Successes: rng.Intn(n + 1), Trials: n}
		}
		shards := 1 + rng.Intn(7)
		parts := make([]Stratified, shards)
		for s := range parts {
			parts[s] = Stratified{Weights: weights, Parts: make([]Proportion, len(weights))}
		}
		for h, p := range pooled.Parts {
			for i := 0; i < p.Trials; i++ {
				s := i % shards
				parts[s].Parts[h].Trials++
				if i < p.Successes {
					parts[s].Parts[h].Successes++
				}
			}
		}
		merged := MergeAllStratified(parts...)
		if math.Float64bits(merged.P()) != math.Float64bits(pooled.P()) {
			t.Fatalf("stratified point estimates diverged: %v vs %v", merged.P(), pooled.P())
		}
		if math.Float64bits(merged.CI95()) != math.Float64bits(pooled.CI95()) {
			t.Fatalf("stratified CIs diverged: %v vs %v", merged.CI95(), pooled.CI95())
		}
	}
}

func TestStratifiedMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched stratified merge did not panic")
		}
	}()
	a := Stratified{Weights: []float64{1}, Parts: make([]Proportion, 1)}
	b := Stratified{Weights: []float64{0.5, 0.5}, Parts: make([]Proportion, 2)}
	a.Merge(b)
}
