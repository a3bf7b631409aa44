package faultinj

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/numeric"
	"repro/internal/sdc"
	"repro/internal/tensor"
)

// z99 is the two-sided 99% normal quantile the unbiasedness test uses.
const z99 = 2.5758293035489004

func TestPilotBudget(t *testing.T) {
	cases := []struct {
		n, pilotN, wantPilot, wantMain int
	}{
		{1000, 0, 200, 800}, // default: n/5
		{1000, 300, 300, 700},
		{1000, 5000, 1000, 0}, // clamped to n
		{3, 0, 1, 2},          // engine.DefaultPilotN floor
		{1, 0, 1, 0},
	}
	for _, tc := range cases {
		pilot, main := engine.PilotBudget(tc.n, tc.pilotN)
		if pilot != tc.wantPilot || main != tc.wantMain {
			t.Errorf("engine.PilotBudget(%d,%d) = (%d,%d), want (%d,%d)",
				tc.n, tc.pilotN, pilot, main, tc.wantPilot, tc.wantMain)
		}
	}
}

// pilotSummary builds a 2-block x 4-bit summary with a hand-chosen pilot:
// stratum (0,3) saw SDC activity, everything else was masked, and stratum
// (1,0) has zero weight (never sampleable).
func pilotSummary() *engine.StrataSummary {
	const blocks, bits = 2, 4
	s := &engine.StrataSummary{
		Blocks: blocks,
		Bits:   bits,
		Weight: make(engine.HexFloats, blocks*bits),
		Counts: make([]sdc.Counts, blocks*bits),
	}
	for h := range s.Weight {
		s.Weight[h] = 1.0 / float64(blocks*bits)
	}
	s.Weight[bits] = 0 // stratum (1,0) excluded from the design
	for h := range s.Counts {
		if s.Weight[h] == 0 {
			continue
		}
		s.Counts[h].Trials = 10
		for _, k := range sdc.Kinds {
			s.Counts[h].DefinedTrials[k] = 10
		}
	}
	active := 0*4 + 3
	s.Counts[active].Hits[sdc.SDC1] = 5
	return s
}

// tableGroups are the two draw-unit sizes a table over pilotSummary is
// built for: one stratum per cell (the per-bit design) and one block per
// cell (the site modes).
var tableGroups = []int{1, 4}

func TestBuildStratumTableAllocation(t *testing.T) {
	for _, group := range tableGroups {
		s := pilotSummary()
		const mainN = 100
		tab := engine.BuildStratumTable(s, mainN, group)

		total := 0
		for c, a := range tab.Alloc {
			if a < 0 {
				t.Fatalf("group %d: cell %d has negative allocation %d", group, c, a)
			}
			if tab.Weight[c] == 0 && a != 0 {
				t.Errorf("group %d: zero-weight cell %d allocated %d units", group, c, a)
			}
			if tab.Weight[c] > 0 && a < 1 {
				t.Errorf("group %d: cell %d below the representation floor: %d", group, c, a)
			}
			total += a
		}
		if total != mainN {
			t.Fatalf("group %d: allocation sums to %d, want %d", group, total, mainN)
		}
		if group == 1 && tab.Alloc[4] != 0 {
			t.Errorf("zero-weight stratum (1,0) allocated %d injections", tab.Alloc[4])
		}
		// Neyman: the cell with pilot SDC activity is the high-variance one
		// and must receive more than any fully masked cell.
		active := (0*4 + 3) / group
		for c, a := range tab.Alloc {
			if c != active && tab.Weight[c] > 0 && a >= tab.Alloc[active] {
				t.Errorf("group %d: masked cell %d allocation %d not below active cell's %d",
					group, c, a, tab.Alloc[active])
			}
		}
	}
}

func TestBuildStratumTableDeterministic(t *testing.T) {
	for _, group := range tableGroups {
		a := engine.BuildStratumTable(pilotSummary(), 97, group)
		b := engine.BuildStratumTable(pilotSummary(), 97, group)
		for c := range a.Alloc {
			if a.Alloc[c] != b.Alloc[c] {
				t.Fatalf("group %d: allocation diverged at cell %d: %d vs %d", group, c, a.Alloc[c], b.Alloc[c])
			}
		}
	}
}

func TestStratumTableMapping(t *testing.T) {
	for _, group := range tableGroups {
		tab := engine.BuildStratumTable(pilotSummary(), 53, group)
		seen := make([]int, len(tab.Alloc))
		for j := 0; j < tab.MainN; j++ {
			block, bit := tab.Stratum(j)
			if block < 0 || block >= tab.Blocks || bit < 0 || bit >= tab.Bits {
				t.Fatalf("group %d: Stratum(%d) = (%d,%d) out of grid", group, j, block, bit)
			}
			seen[block*tab.Bits+bit]++
		}
		for c := range seen {
			if seen[c] != tab.Alloc[c] {
				t.Fatalf("group %d: cell %d drawn %d times, allocated %d", group, c, seen[c], tab.Alloc[c])
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("group %d: Stratum(MainN) did not panic", group)
				}
			}()
			tab.Stratum(tab.MainN)
		}()
	}
}

func TestStratifiedBudgetAndWeights(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(2))
	const n = 500
	r := c.Run(Options{Options: engine.Options{N: n, Seed: 31, Workers: 3, Sampling: engine.SamplingStratified}})
	if r.Counts.Trials != n {
		t.Fatalf("Trials = %d, want %d", r.Counts.Trials, n)
	}
	if r.Strata == nil {
		t.Fatal("stratified run produced no strata summary")
	}
	total, mass := 0, 0.0
	for h := range r.Strata.Counts {
		total += r.Strata.Counts[h].Trials
		mass += r.Strata.Weight[h]
	}
	if total != n {
		t.Errorf("strata trials sum to %d, want %d", total, n)
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("stratum weights sum to %v, want 1", mass)
	}
}

// TestStratifiedUnbiased is the acceptance property: for every numeric
// format, the stratified campaign's Horvitz–Thompson SDC-1 estimate must
// agree with the uniform campaign's estimate of the same quantity within
// the pooled 99% interval — reweighting undoes the deliberately skewed
// allocation.
func TestStratifiedUnbiased(t *testing.T) {
	for _, dt := range numeric.Types {
		const n = 2400
		uni := New(smallNet(), dt, smallInputs(2)).Run(Options{Options: engine.Options{N: n, Seed: 37, Workers: 4}})
		str := New(smallNet(), dt, smallInputs(2)).Run(Options{Options: engine.Options{N: n, Seed: 37, Workers: 4, Sampling: engine.SamplingStratified}})

		pu, ciu := engine.SDCEstimate(uni.Counts, uni.Strata, sdc.SDC1)
		ps, cis := engine.SDCEstimate(str.Counts, str.Strata, sdc.SDC1)
		seu, ses := ciu/1.959963984540054, cis/1.959963984540054
		bound := z99*math.Sqrt(seu*seu+ses*ses) + 1e-9
		if diff := math.Abs(pu - ps); diff > bound {
			t.Errorf("%s: stratified SDC-1 %.4f vs uniform %.4f differ by %.4f, pooled 99%% bound %.4f",
				dt, ps, pu, diff, bound)
		}
	}
}

// TestStratifiedCINarrowerOnConvNet is the equal-budget efficiency claim:
// on the paper's ConvNet the stratified SDC-1 interval must be strictly
// narrower than the uniform one for every numeric format.
func TestStratifiedCINarrowerOnConvNet(t *testing.T) {
	if testing.Short() {
		t.Skip("ConvNet campaigns in -short mode")
	}
	for _, dt := range numeric.Types {
		const n = 3000
		net := models.Build("ConvNet")
		c := New(net, dt, []*tensor.Tensor{models.InputFor("ConvNet", 0)})
		c.Golden(0)
		uni := c.Run(Options{Options: engine.Options{N: n, Seed: 1}})
		str := c.Run(Options{Options: engine.Options{N: n, Seed: 1, Sampling: engine.SamplingStratified}})
		_, ciu := engine.SDCEstimate(uni.Counts, uni.Strata, sdc.SDC1)
		_, cis := engine.SDCEstimate(str.Counts, str.Strata, sdc.SDC1)
		if !(cis < ciu) {
			t.Errorf("%s: stratified CI %.5f not narrower than uniform %.5f at equal budget", dt, cis, ciu)
		}
	}
}

// TestStratifiedRunShardMergeMatchesRun extends the determinism contract
// to the two-phase design: the shard-order merge of serially-run stratified
// shard partials must be bit-identical to the solo stratified Run —
// including the per-stratum tallies — for S ∈ {1, 2, 7}.
func TestStratifiedRunShardMergeMatchesRun(t *testing.T) {
	for _, dt := range []numeric.Type{numeric.Float16, numeric.Fx32RB10} {
		for _, shards := range []int{1, 2, 7} {
			opt := Options{Options: engine.Options{N: 211, Seed: 41, Workers: shards, Sampling: engine.SamplingStratified}, TrackSpread: true}

			want := New(smallNet(), dt, smallInputs(2)).Run(opt)

			sharded := New(smallNet(), dt, smallInputs(2))
			got := engine.MergeAll(engine.ShardReports(sharded.Surface(opt)))
			assertReportsBitIdentical(t, dt.String(), got, want)
		}
	}
}

// TestStratifiedPhaseShardsMatchRun exercises the distributed ledger's path
// directly: the plan's pilot slots, a table built from their merge, its
// main slots under that table, everything merged in the interleaved
// pilot₀ ⊕ main₀ ⊕ … slot order — bit-identical to solo Run.
func TestStratifiedPhaseShardsMatchRun(t *testing.T) {
	const shards = 3
	opt := Options{Options: engine.Options{N: 207, Seed: 43, Workers: shards, Sampling: engine.SamplingStratified}}

	want := New(smallNet(), numeric.Float16, smallInputs(2)).Run(opt)

	s, eo := New(smallNet(), numeric.Float16, smallInputs(2)).Surface(opt)
	plan := engine.NewPlan(eo, s.Campaign().DType.Width())
	slots := make([]*Report, plan.Slots())
	for slot := range slots {
		if !plan.Gated(slot) {
			slots[slot] = engine.RunSlot(s, plan, slot, nil)
		}
	}
	table := plan.Table(engine.PilotReport(plan, slots, engine.MergeAll).Strata)
	for slot := range slots {
		if plan.Gated(slot) {
			slots[slot] = engine.RunSlot(s, plan, slot, table)
		}
	}
	got := engine.MergeAll(slots)
	assertReportsBitIdentical(t, "phase-sharded", got, want)
}

func TestStratifiedCustomSelectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("stratified run with custom selector did not panic")
		}
	}()
	c := New(smallNet(), numeric.Float16, smallInputs(1))
	c.Run(Options{Options: engine.Options{N: 50, Seed: 1, Sampling: engine.SamplingStratified}, Selector: BitSelector(3)})
}

func TestMainShardRejectsMismatchedTable(t *testing.T) {
	opt := Options{Options: engine.Options{N: 100, Seed: 1, Workers: 1, Sampling: engine.SamplingStratified}}
	s, eo := New(smallNet(), numeric.Float16, smallInputs(1)).Surface(opt)
	plan := engine.NewPlan(eo, s.Campaign().DType.Width())
	pilot := engine.RunSlot(s, plan, 0, nil)
	table := engine.BuildStratumTable(pilot.Strata, 17, 1) // wrong MainN on purpose
	defer func() {
		if recover() == nil {
			t.Error("main-phase slot accepted a table for a different budget")
		}
	}()
	engine.RunSlot(s, plan, 1, table)
}

// TestStratifiedReportJSONRoundTrip pins the wire format of stratified
// shard reports: per-stratum weights travel as hex float bits and the
// whole report must survive the worker → coordinator hop bit-exactly.
func TestStratifiedReportJSONRoundTrip(t *testing.T) {
	c := New(smallNet(), numeric.Float16, smallInputs(2))
	r := c.Run(Options{Options: engine.Options{N: 180, Seed: 47, Sampling: engine.SamplingStratified}, TrackSpread: true})
	if r.Strata == nil {
		t.Fatal("no strata on stratified report")
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	assertReportsBitIdentical(t, "stratified-roundtrip", &back, r)
}

func TestHexFloatsRoundTrip(t *testing.T) {
	in := engine.HexFloats{0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out engine.HexFloats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("element %d: %x vs %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
	if err := json.Unmarshal([]byte(`["zz"]`), &out); err == nil {
		t.Error("bad hex float bits did not error")
	}
}

// TestStratumTableJSONRoundTrip is the lease-serialization contract: a
// table shipped to a worker must reproduce the coordinator's allocation
// and stratum mapping exactly.
func TestStratumTableJSONRoundTrip(t *testing.T) {
	for _, group := range tableGroups {
		tab := engine.BuildStratumTable(pilotSummary(), 64, group)
		data, err := json.Marshal(tab)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back engine.StratumTable
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.Blocks != tab.Blocks || back.Bits != tab.Bits || back.MainN != tab.MainN {
			t.Fatalf("group %d: dims diverged: blocks=%d bits=%d mainN=%d", group, back.Blocks, back.Bits, back.MainN)
		}
		for c := range tab.Alloc {
			if back.Alloc[c] != tab.Alloc[c] {
				t.Fatalf("group %d: alloc %d diverged", group, c)
			}
			if math.Float64bits(back.Weight[c]) != math.Float64bits(tab.Weight[c]) {
				t.Fatalf("group %d: weight %d diverged", group, c)
			}
		}
		for j := 0; j < tab.MainN; j++ {
			b1, bit1 := tab.Stratum(j)
			b2, bit2 := back.Stratum(j)
			if b1 != b2 || bit1 != bit2 {
				t.Fatalf("group %d: Stratum(%d) diverged after round-trip: (%d,%d) vs (%d,%d)", group, j, b1, bit1, b2, bit2)
			}
		}
	}
}
