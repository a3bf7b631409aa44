// Masking-aware stratified site sampling. Most uniform injections land on
// sites whose faults are masked (§4 of the paper: low-order bits, heavily
// truncated positions), so at a fixed injection budget they contribute
// almost nothing but sampling noise to the SDC-probability estimates. The
// two-phase campaign implemented here keeps the estimates unbiased while
// concentrating the budget where the variance is:
//
//  1. Pilot: a seeded uniform campaign over a fraction of the budget
//     estimates the per-stratum SDC rate. Strata are keyed by (block,
//     flipped bit position) — for the datapath surface the paper-style
//     block and bit that dominate the masked/SDC split (Figs. 4 and 6),
//     for buffer surfaces the MAC layer and bit.
//  2. Main: the remaining budget is spread over the strata by Neyman
//     allocation, n_h ∝ W_h·√(p̃_h(1−p̃_h)), drawn uniformly within each
//     stratum.
//
// Outcomes are reweighted by the strata's population probabilities
// (Horvitz–Thompson), so report rates and stats CIs estimate exactly the
// quantities a uniform campaign measures — just with narrower intervals at
// equal budget. Everything is deterministic given (Seed, shard count): the
// allocation table is a pure function of the merged pilot, so distributed
// shards, checkpoint resumes and the single-process Run agree bit-for-bit.
package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/sdc"
	"repro/internal/stats"
)

// SamplingMode selects how a campaign draws fault sites.
type SamplingMode string

const (
	// SamplingUniform draws every site i.i.d. uniformly — the paper's
	// campaign and the default ("" behaves the same).
	SamplingUniform SamplingMode = "uniform"
	// SamplingStratified runs the two-phase pilot + Neyman-allocation
	// campaign described in the package comment above.
	SamplingStratified SamplingMode = "stratified"
)

// DefaultPilotN is the pilot budget a stratified campaign defaults to:
// one fifth of the total, at least 1.
func DefaultPilotN(n int) int {
	p := n / 5
	if p < 1 {
		p = 1
	}
	return p
}

// PilotBudget resolves a stratified campaign's pilot/main split: pilotN
// zero defaults to DefaultPilotN(n) and is clamped to n. A negative pilotN
// requests a pilot-free campaign — the allocation comes from a prior
// campaign's persisted strata (Options.Prior), so the whole budget is
// main-phase.
func PilotBudget(n, pilotN int) (pilot, main int) {
	if pilotN < 0 {
		return 0, n
	}
	if pilotN == 0 {
		pilotN = DefaultPilotN(n)
	}
	if pilotN > n {
		pilotN = n
	}
	return pilotN, n - pilotN
}

// HexFloats marshals a float64 slice as raw IEEE-754 bit patterns (hex
// strings): the distributed campaign service needs stratum weights to
// round-trip bit-exactly between workers and the coordinator, and decimal
// rendering cannot guarantee that.
type HexFloats []float64

// MarshalJSON implements json.Marshaler.
func (x HexFloats) MarshalJSON() ([]byte, error) {
	ss := make([]string, len(x))
	for i, v := range x {
		ss[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return json.Marshal(ss)
}

// Equal reports whether x and y hold the same float64 bit patterns.
func (x HexFloats) Equal(y HexFloats) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

// UnmarshalJSON implements json.Unmarshaler.
func (x *HexFloats) UnmarshalJSON(data []byte) error {
	var ss []string
	if err := json.Unmarshal(data, &ss); err != nil {
		return err
	}
	out := make(HexFloats, len(ss))
	for i, s := range ss {
		bits, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return fmt.Errorf("engine: bad float bits %q: %v", s, err)
		}
		out[i] = math.Float64frombits(bits)
	}
	*x = out
	return nil
}

// StrataSummary carries the per-stratum state of a stratified campaign
// through shard reports. Strata are keyed by (block, flipped bit
// position); stratum h = block·Bits + bit.
type StrataSummary struct {
	// Blocks and Bits are the stratum grid dimensions.
	Blocks int `json:"blocks"`
	Bits   int `json:"bits"`
	// Weight[h] is stratum h's population probability under the surface's
	// uniform site sampling design. The weights of one campaign are
	// identical in every shard.
	Weight HexFloats `json:"weight"`
	// Counts[h] tallies the injections drawn in stratum h.
	Counts []sdc.Counts `json:"counts"`
	// SpreadSum/SpreadN accumulate the Table 5 final-block mismatch metric
	// per stratum when the campaign tracks spread, so SpreadRate can be
	// reweighted the same way the SDC rates are.
	SpreadSum []float64 `json:"spread_sum,omitempty"`
	SpreadN   []int     `json:"spread_n,omitempty"`
}

// NewStrata allocates an empty per-stratum tally grid for one shard
// report. weight must hold blocks·bits population probabilities; spread
// additionally allocates the per-stratum spread accumulators.
func NewStrata(blocks, bits int, weight HexFloats, spread bool) *StrataSummary {
	s := &StrataSummary{
		Blocks: blocks,
		Bits:   bits,
		Weight: weight,
		Counts: make([]sdc.Counts, blocks*bits),
	}
	if spread {
		s.SpreadSum = make([]float64, blocks*bits)
		s.SpreadN = make([]int, blocks*bits)
	}
	return s
}

// Check reports whether s has the shape a shard report of a campaign over
// a blocks×bits stratum grid carries — what Merge, Estimate and the table
// builders index without looking: every per-stratum slice blocks·bits long
// (the spread accumulators only when the campaign tracks spread, absent
// otherwise) and every tally one sdc.Counts.Add could have produced. It is
// the gate for summaries decoded from outside the process, bar the weights'
// values, which campaign.Report.validate holds to the spec's.
func (s *StrataSummary) Check(blocks, bits int, spread bool) error {
	n := blocks * bits
	if s.Blocks != blocks || s.Bits != bits {
		return fmt.Errorf("engine: strata grid %dx%d, campaign has %dx%d", s.Blocks, s.Bits, blocks, bits)
	}
	if len(s.Weight) != n || len(s.Counts) != n {
		return fmt.Errorf("engine: strata carry %d weights and %d tallies for %d strata", len(s.Weight), len(s.Counts), n)
	}
	for h, c := range s.Counts {
		if err := c.Check(); err != nil {
			return fmt.Errorf("engine: stratum %d: %v", h, err)
		}
	}
	if !spread {
		n = 0
	}
	if len(s.SpreadSum) != n || len(s.SpreadN) != n {
		return fmt.Errorf("engine: strata carry %d/%d spread accumulators, want %d", len(s.SpreadSum), len(s.SpreadN), n)
	}
	return nil
}

// Clone deep-copies the summary.
func (s *StrataSummary) Clone() *StrataSummary {
	out := &StrataSummary{
		Blocks: s.Blocks,
		Bits:   s.Bits,
		Weight: append(HexFloats(nil), s.Weight...),
		Counts: append([]sdc.Counts(nil), s.Counts...),
	}
	if s.SpreadSum != nil {
		out.SpreadSum = append([]float64(nil), s.SpreadSum...)
		out.SpreadN = append([]int(nil), s.SpreadN...)
	}
	return out
}

// Merge pools another summary of the same campaign (equal dimensions and
// bit-identical weights) into s.
func (s *StrataSummary) Merge(s2 *StrataSummary) {
	if s.Blocks != s2.Blocks || s.Bits != s2.Bits {
		panic(fmt.Sprintf("engine: merging strata %dx%d with %dx%d",
			s.Blocks, s.Bits, s2.Blocks, s2.Bits))
	}
	for h := range s.Counts {
		if s.Weight[h] != s2.Weight[h] {
			panic(fmt.Sprintf("engine: merging strata with mismatched weight for stratum %d", h))
		}
		s.Counts[h].Merge(s2.Counts[h])
	}
	if s2.SpreadSum != nil {
		if s.SpreadSum == nil {
			s.SpreadSum = make([]float64, len(s.Counts))
			s.SpreadN = make([]int, len(s.Counts))
		}
		for h := range s2.SpreadSum {
			s.SpreadSum[h] += s2.SpreadSum[h]
			s.SpreadN[h] += s2.SpreadN[h]
		}
	}
}

// MergeStrata pools src into dst and returns the result — how every surface
// report merges its optional strata: a nil src changes nothing, a nil dst
// becomes a copy of src.
func MergeStrata(dst, src *StrataSummary) *StrataSummary {
	switch {
	case src == nil:
	case dst == nil:
		dst = src.Clone()
	default:
		dst.Merge(src)
	}
	return dst
}

// part is one stratum's sample of criterion k: its hits out of the trials
// on which k is defined.
func part(c sdc.Counts, k sdc.Kind) stats.Proportion {
	return stats.Proportion{Successes: c.Hits[k], Trials: c.DefinedTrials[k]}
}

// Estimate assembles the Horvitz–Thompson estimator of the uniform-design
// probability of criterion k from the pooled strata.
func (s *StrataSummary) Estimate(k sdc.Kind) stats.Stratified {
	parts := make([]stats.Proportion, len(s.Counts))
	for h := range s.Counts {
		parts[h] = part(s.Counts[h], k)
	}
	return stats.Stratified{Weights: s.Weight, Parts: parts}
}

// Estimate is the one estimator behind every error bar: the estimate of
// the uniform-design probability of criterion k from a report's overall
// counts and strata. A stratified campaign (strata non-nil) reweights its
// strata; a uniform one is the one-stratum case, its pooled counts at
// weight 1.
func Estimate(counts sdc.Counts, strata *StrataSummary, k sdc.Kind) stats.Stratified {
	if strata != nil {
		return strata.Estimate(k)
	}
	return stats.Stratified{Weights: []float64{1}, Parts: []stats.Proportion{part(counts, k)}}
}

// SDCEstimate is Estimate's point estimate and 95% CI half-width, the pair
// every surface report prints.
func SDCEstimate(counts sdc.Counts, strata *StrataSummary, k sdc.Kind) (p, ci95 float64) {
	e := Estimate(counts, strata, k)
	return e.P(), e.CI95()
}

// BlockEstimate is the per-block analogue of Estimate: within a block,
// bits are equally likely under uniform sampling, so the block-conditional
// stratum weights are uniform over the block's bit strata. It assumes they
// are: under a multi-bit upset, whose top base-bit strata carry zero
// weight, it still averages over all Bits positions.
func (s *StrataSummary) BlockEstimate(block int, k sdc.Kind) stats.Stratified {
	w := make([]float64, s.Bits)
	parts := make([]stats.Proportion, s.Bits)
	for bit := 0; bit < s.Bits; bit++ {
		w[bit] = 1 / float64(s.Bits)
		parts[bit] = part(s.Counts[block*s.Bits+bit], k)
	}
	return stats.Stratified{Weights: w, Parts: parts}
}

// BitEstimate is the per-bit analogue of Estimate (Fig. 4): the SDC
// probability of a flip at one bit position, its strata conditioned across
// blocks by their population weights Weight[block·Bits+bit]
// (stats.Stratified renormalizes them over the sampled blocks).
func (s *StrataSummary) BitEstimate(bit int, k sdc.Kind) stats.Stratified {
	w := make([]float64, s.Blocks)
	parts := make([]stats.Proportion, s.Blocks)
	for block := 0; block < s.Blocks; block++ {
		h := block*s.Bits + bit
		w[block] = s.Weight[h]
		parts[block] = part(s.Counts[h], k)
	}
	return stats.Stratified{Weights: w, Parts: parts}
}

// BlockSpread returns the reweighted Table 5 spread rate for one block:
// the equal-weight mean over the block's sampled bit strata of their
// per-stratum mean spread. Under uniform sampling every bit of a block is
// equally likely, so this estimates the same quantity as the raw mean a
// uniform campaign computes.
func (s *StrataSummary) BlockSpread(block int) float64 {
	var sum float64
	sampled := 0
	for bit := 0; bit < s.Bits; bit++ {
		h := block*s.Bits + bit
		if s.SpreadN[h] == 0 {
			continue
		}
		sum += s.SpreadSum[h] / float64(s.SpreadN[h])
		sampled++
	}
	if sampled == 0 {
		return 0
	}
	return sum / float64(sampled)
}

// StratumTable is the deterministic main-phase allocation of a stratified
// campaign: how many of the MainN post-pilot draw units each cell of the
// stratum grid receives. It is a pure function of the merged pilot strata,
// MainN and the draw-unit size (BuildStratumTable), which is what lets
// distributed workers, checkpoint resumes and single-process runs agree
// bit-for-bit — the coordinator serializes the table into each main-phase
// lease, and any participant can recompute an identical one from the same
// pilot.
type StratumTable struct {
	// Blocks×Bits is the cell grid: the stratum grid itself for one-bit
	// draw units, one cell per block (Bits 1) for whole-word units.
	Blocks int `json:"blocks"`
	Bits   int `json:"bits"`
	// MainN is the number of draw units allocated.
	MainN int `json:"main_n"`
	// Weight[c] is cell c's population probability.
	Weight HexFloats `json:"weight"`
	// Alloc[c] is cell c's share of the MainN draw units; it sums to MainN
	// (zero-weight cells always get zero).
	Alloc []int `json:"alloc"`

	once sync.Once
	cum  []int
}

// Stratum maps main-phase draw unit j ∈ [0, MainN) to its cell's (block,
// position within the block): the allocation laid out contiguously in cell
// order.
func (t *StratumTable) Stratum(j int) (block, cell int) {
	t.once.Do(func() {
		t.cum = make([]int, len(t.Alloc))
		c := 0
		for h, a := range t.Alloc {
			c += a
			t.cum[h] = c
		}
	})
	if j < 0 || j >= t.MainN {
		panic(fmt.Sprintf("engine: main-phase draw unit %d out of range [0,%d)", j, t.MainN))
	}
	h := sort.SearchInts(t.cum, j+1)
	return h / t.Bits, h % t.Bits
}

// BuildStratumTable computes the Neyman allocation of units main-phase
// draw units from pooled pilot strata. A draw unit samples group adjacent
// bit strata of one block at once — one in the per-bit design, the whole
// word under a site evaluation mode — so the allocation is over cells of
// group strata, and a cell's weight and Neyman score pool its strata's:
// Σ W_h and Σ W_h·√(p̃_h(1−p̃_h)) on the SDC-1 rate. p̃_h shrinks the
// stratum's pilot rate toward the pooled pilot rate with two pseudo-trials —
// an empirical-Bayes prior reflecting the paper's §4 finding that most
// strata are near-fully masked. Shrinking toward the pooled rate (rather
// than ½) is what lets the allocation actually concentrate: a stratum the
// pilot saw as fully masked scores close to the campaign-wide σ, not the
// maximal ½, so the few high-variance cells receive most of the budget.
// Every cell with positive weight gets at least one unit when units allows
// (the estimator needs every stratum represented); fractional shares round
// by largest remainder with ties broken by cell index, so the table is a
// deterministic function of (strata, units, group).
func BuildStratumTable(s *StrataSummary, units, group int) *StratumTable {
	if s == nil {
		panic("engine: BuildStratumTable needs pilot strata")
	}
	if group < 1 || s.Bits%group != 0 {
		panic(fmt.Sprintf("engine: %d-bit draw units do not tile the %d-bit stratum grid", group, s.Bits))
	}
	cells := len(s.Counts) / group
	t := &StratumTable{
		Blocks: s.Blocks,
		Bits:   s.Bits / group,
		MainN:  units,
		Weight: make(HexFloats, cells),
		Alloc:  make([]int, cells),
	}
	// Pooled pilot SDC-1 rate, lightly smoothed so a fully masked pilot
	// still yields a positive prior (and thus positive Neyman scores).
	var poolX, poolN float64
	for h := range s.Counts {
		poolX += float64(s.Counts[h].Hits[sdc.SDC1])
		poolN += float64(s.Counts[h].DefinedTrials[sdc.SDC1])
	}
	prior := (poolX + 0.5) / (poolN + 1)
	score := make([]float64, cells)
	var total float64
	eligible := 0
	for c := range score {
		for h := c * group; h < (c+1)*group; h++ {
			w := s.Weight[h]
			if w <= 0 {
				continue
			}
			n := float64(s.Counts[h].DefinedTrials[sdc.SDC1])
			x := float64(s.Counts[h].Hits[sdc.SDC1])
			pt := (x + 2*prior) / (n + 2)
			t.Weight[c] += w
			score[c] += float64(w * math.Sqrt(pt*(1-pt)))
		}
		if t.Weight[c] > 0 {
			eligible++
			total += score[c]
		}
	}
	if group == 1 {
		// A one-stratum cell's weight is the stratum's, bit for bit (0+w is
		// exact for every w but −0, which the sum above would lose).
		copy(t.Weight, s.Weight)
	}
	if units <= 0 || eligible == 0 {
		return t
	}
	rem := units
	if units >= eligible {
		for c, w := range t.Weight {
			if w > 0 {
				t.Alloc[c] = 1
			}
		}
		rem = units - eligible
	}
	if rem == 0 || total <= 0 {
		return t
	}
	type frac struct {
		c int
		f float64
	}
	var fracs []frac
	used := 0
	for c := range score {
		if score[c] <= 0 {
			continue
		}
		share := float64(rem) * score[c] / total
		base := int(share)
		t.Alloc[c] += base
		used += base
		fracs = append(fracs, frac{c, share - float64(base)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].c < fracs[j].c
	})
	// used ≥ rem − len(fracs) (each floor loses under 1), so the wrap is
	// only a guard against float-sum drift.
	for i := 0; i < rem-used; i++ {
		t.Alloc[fracs[i%len(fracs)].c]++
	}
	return t
}
