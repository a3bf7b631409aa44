package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// cloneReport deep-copies a wire report the way the wire does.
func cloneReport(t *testing.T, r *Report) *Report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Report)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// malformation turns a well-formed slot report into one Accept must refuse.
// It returns nil when it does not apply to the report (surface, phase).
type malformation struct {
	name string
	make func(good *Report) *Report
}

// strataOf returns the strata pointer of whichever surface r carries.
func strataOf(r *Report) **engine.StrataSummary {
	switch {
	case r.Datapath != nil:
		return &r.Datapath.Strata
	case r.Buffer != nil:
		return &r.Buffer.Strata
	}
	return &r.Systolic.Strata
}

// onStrata applies edit to the report's strata; n/a on uniform slots.
func onStrata(edit func(s *engine.StrataSummary)) func(*Report) *Report {
	return func(r *Report) *Report {
		if s := *strataOf(r); s != nil {
			edit(s)
			return r
		}
		return nil
	}
}

// onDatapath applies edit to a datapath report; n/a on the other surfaces.
func onDatapath(edit func(dp *faultinj.Report)) func(*Report) *Report {
	return func(r *Report) *Report {
		if r.Datapath == nil {
			return nil
		}
		edit(r.Datapath)
		return r
	}
}

var malformations = []malformation{
	{"nil body", func(*Report) *Report { return (*Report)(nil) }},
	{"zero surfaces", func(*Report) *Report { return &Report{} }},
	{"two surfaces", func(r *Report) *Report {
		if r.Systolic == nil {
			r.Systolic = &systolic.Report{}
		} else {
			r.Buffer = &eyeriss.Report{}
		}
		return r
	}},
	{"wrong surface", func(r *Report) *Report {
		if r.Buffer != nil {
			return &Report{Systolic: &systolic.Report{Strata: r.Buffer.Strata}}
		}
		return &Report{Buffer: &eyeriss.Report{Strata: *strataOf(r)}}
	}},
	{"short PerBit", onDatapath(func(dp *faultinj.Report) { dp.PerBit = dp.PerBit[:len(dp.PerBit)-1] })},
	{"empty PerBit, 20 blocks", onDatapath(func(dp *faultinj.Report) {
		dp.PerBit, dp.PerBlock = nil, make([]sdc.Counts, 20)
	})},
	{"short SpreadSum", onDatapath(func(dp *faultinj.Report) { dp.SpreadSum = dp.SpreadSum[:1] })},
	{"long SpreadN", onDatapath(func(dp *faultinj.Report) { dp.SpreadN = append(dp.SpreadN, 0) })},
	{"short PreMaskedPerBit", onDatapath(func(dp *faultinj.Report) { dp.PreMaskedPerBit = []int{1} })},
	{"strata missing", func(r *Report) *Report {
		if *strataOf(r) == nil {
			return nil
		}
		*strataOf(r) = nil
		return r
	}},
	{"strata on a uniform slot", func(r *Report) *Report {
		if *strataOf(r) != nil {
			return nil
		}
		*strataOf(r) = engine.NewStrata(5, 16, make(engine.HexFloats, 80), false)
		return r
	}},
	{"strata wrong blocks", onStrata(func(s *engine.StrataSummary) { s.Blocks++ })},
	{"strata wrong bits", onStrata(func(s *engine.StrataSummary) { s.Bits, s.Blocks = s.Blocks, s.Bits })},
	{"strata short weights", onStrata(func(s *engine.StrataSummary) { s.Weight = s.Weight[:len(s.Weight)-1] })},
	{"strata short counts", onStrata(func(s *engine.StrataSummary) { s.Counts = s.Counts[:1] })},
	{"strata NaN weight", onStrata(func(s *engine.StrataSummary) { s.Weight[0] = math.NaN() })},
	{"strata negative weight", onStrata(func(s *engine.StrataSummary) { s.Weight[0] = -s.Weight[0] - 1 })},
	{"strata spread length", onStrata(func(s *engine.StrataSummary) {
		s.SpreadSum, s.SpreadN = append(s.SpreadSum, 0), append(s.SpreadN, 0)
	})},
}

// TestMachineRefusesMalformedReports drives one Machine per (surface,
// sampling) to completion and, at every slot — uniform, pilot and main —
// first offers every malformed variant of the slot's real report. Each
// must be refused with the ledger untouched: nothing completed, the lease
// still live, and — once it lapses — the slot leasable again.
func TestMachineRefusesMalformedReports(t *testing.T) {
	specs := map[string]func(sampling string) Spec{
		"datapath": func(sampling string) Spec {
			s := testSpec("16b_rb10")
			s.N, s.Shards, s.Sampling = 40, 2, sampling
			return s
		},
		"buffer":   bufSpec,
		"systolic": sysSpec,
	}
	for name, build := range specs {
		for _, sampling := range []string{"uniform", "stratified"} {
			t.Run(name+"/"+sampling, func(t *testing.T) {
				m, err := NewMachine(build(sampling), 100)
				if err != nil {
					t.Fatal(err)
				}
				now := time.Now()
				refused := map[string]int{}
				for !m.Done() {
					l := m.Lease(now, time.Minute)
					if l == nil {
						t.Fatalf("no lease while %d/%d slots done", m.Completed(), m.Spec().Slots())
					}
					good, err := ExecuteLease(l, nil)
					if err != nil {
						t.Fatal(err)
					}
					done := m.Completed()
					for _, mal := range malformations {
						bad := mal.make(cloneReport(t, good))
						if bad == nil && mal.name != "nil body" {
							continue
						}
						if first, err := m.Accept(l.Slot, bad); err == nil || first {
							t.Fatalf("slot %d (%q phase): %s accepted (first=%v)", l.Slot, l.Phase, mal.name, first)
						}
						refused[mal.name]++
					}
					// Weights are the spec's: every strata-carrying report,
					// the first included, must carry them bit for bit.
					if s := *strataOf(good); s != nil {
						bad := cloneReport(t, good)
						w := (*strataOf(bad)).Weight
						w[0] = math.Float64frombits(math.Float64bits(w[0]) + 1)
						if first, err := m.Accept(l.Slot, bad); err == nil || first {
							t.Fatalf("slot %d: perturbed stratum weight accepted", l.Slot)
						}
						refused["weights differ"]++
					}
					if m.Completed() != done || m.InFlight() != 1 || !m.Heartbeat(l.ID, now, time.Minute) {
						t.Fatalf("slot %d: refusals touched the ledger: completed %d→%d, in flight %d",
							l.Slot, done, m.Completed(), m.InFlight())
					}
					now = now.Add(2 * time.Minute)
					if m.Expire(now) != 1 {
						t.Fatalf("slot %d: lease did not lapse", l.Slot)
					}
					if again := m.Lease(now, time.Minute); again == nil || again.Slot != l.Slot {
						t.Fatalf("slot %d not leasable after the refusals: %+v", l.Slot, again)
					}
					if first, err := m.Accept(l.Slot, good); err != nil || !first {
						t.Fatalf("slot %d: well-formed report refused: first=%v err=%v", l.Slot, first, err)
					}
				}
				want := []string{"nil body", "zero surfaces", "two surfaces", "wrong surface"}
				if sampling == "stratified" {
					want = append(want, "strata missing", "strata wrong blocks", "strata short weights", "weights differ")
				} else {
					want = append(want, "strata on a uniform slot")
				}
				if name == "datapath" {
					want = append(want, "short PerBit", "empty PerBit, 20 blocks", "short SpreadSum")
				}
				for _, n := range want {
					if refused[n] == 0 {
						t.Errorf("malformation %q never exercised", n)
					}
				}
				if _, err := m.FinalReport(); err != nil {
					t.Fatal(err)
				}
				m.Snapshot()
			})
		}
	}
}

// TestMachineRefusesWrappedStrata: a real pilot-slot report with 2^62
// added to the trials of four strata — each stratum still a tally
// injections could produce, the strata sum wrapping back to the overall
// tally — is refused by Accept, the journal-replay path, at the bound
// every stratum's trials must keep under the report's.
func TestMachineRefusesWrappedStrata(t *testing.T) {
	m, err := NewMachine(stratSpec("16b_rb10"), 3)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Lease(time.Now(), time.Minute)
	if l == nil || l.Phase != engine.PhasePilot {
		t.Fatalf("first lease %+v, want a pilot slot", l)
	}
	good, err := ExecuteLease(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := cloneReport(t, good)
	s := *strataOf(bad)
	for h := range 4 {
		s.Counts[h].Trials += 1 << 62
	}
	if first, err := m.Accept(l.Slot, bad); err == nil || first || !strings.Contains(err.Error(), "stratum 0 tallies") {
		t.Fatalf("wrapped strata: first=%v err=%v, want the stratum 0 tallies refusal", first, err)
	}
	if first, err := m.Accept(l.Slot, good); err != nil || !first {
		t.Fatalf("well-formed report refused: first=%v err=%v", first, err)
	}
}

// TestMachineRefusesForgedSpread: spread accumulators are held to the
// tallies they ride with — under TrackSpread one fraction in [0, 1] per
// injection, otherwise none. A leased datapath slot report with a forged
// block accumulator (the 1e300 sum over −3 injections that used to pass,
// a NaN, a sum above its count, a count off the block's trials, spread on
// a campaign that does not track it) or a forged stratum accumulator is
// refused with the ledger untouched, and the honest report then lands.
func TestMachineRefusesForgedSpread(t *testing.T) {
	blocks := func(edit func(dp *faultinj.Report)) func(*Report) { return func(r *Report) { edit(r.Datapath) } }
	strata := func(edit func(s *engine.StrataSummary)) func(*Report) {
		return func(r *Report) { edit(r.Datapath.Strata) }
	}
	for _, tc := range []struct {
		name     string
		sampling string
		spread   bool
		forge    func(*Report)
	}{
		{"1e300 over -3", "uniform", true, blocks(func(dp *faultinj.Report) { dp.SpreadSum[0], dp.SpreadN[0] = 1e300, -3 })},
		{"NaN sum", "uniform", true, blocks(func(dp *faultinj.Report) { dp.SpreadSum[0] = math.NaN() })},
		{"negative sum", "uniform", true, blocks(func(dp *faultinj.Report) { dp.SpreadSum[0] = -0.5 })},
		{"sum above count", "uniform", true, blocks(func(dp *faultinj.Report) { dp.SpreadSum[0] = float64(dp.SpreadN[0]) + 1 })},
		{"count off the tally", "uniform", true, blocks(func(dp *faultinj.Report) { dp.SpreadN[0]++ })},
		{"untracked spread", "uniform", false, blocks(func(dp *faultinj.Report) { dp.SpreadSum[0], dp.SpreadN[0] = 0.5, 1 })},
		{"stratum sum above count", "stratified", true, strata(func(s *engine.StrataSummary) { s.SpreadSum[0] = float64(s.SpreadN[0]) + 0.5 })},
		{"stratum NaN sum", "stratified", true, strata(func(s *engine.StrataSummary) { s.SpreadSum[0] = math.NaN() })},
		{"stratum count off the tally", "stratified", true, strata(func(s *engine.StrataSummary) { s.SpreadN[0] = s.Counts[0].Trials + 1 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("FLOAT16")
			spec.Sampling, spec.TrackSpread = tc.sampling, tc.spread
			m, err := NewMachine(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			l := m.Lease(time.Now(), time.Minute)
			good, err := ExecuteLease(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			bad := cloneReport(t, good)
			tc.forge(bad)
			if first, err := m.AcceptLeased(l.Slot, bad); err == nil || first || m.Completed() != 0 {
				t.Fatalf("forged spread: first=%v err=%v completed=%d, want a refusal", first, err, m.Completed())
			}
			if first, err := m.AcceptLeased(l.Slot, good); err != nil || !first {
				t.Fatalf("honest report refused after the forgery: first=%v err=%v", first, err)
			}
		})
	}
}

// leaseEverGrantedSscanf is LeaseEverGranted as it was written with
// fmt.Sscanf, the oracle of the exact parse that replaced it.
func leaseEverGrantedSscanf(leaseSeq int, leaseID string, slot int) bool {
	var seq, s int
	if _, err := fmt.Sscanf(leaseID, "L%d-s%d", &seq, &s); err != nil {
		return false
	}
	return s == slot && seq >= 1 && seq <= leaseSeq && leaseID == fmt.Sprintf("L%d-s%d", seq, s)
}

// TestLeaseEverGrantedParsesExactly: a lease ID is "L<seq>-s<slot>" with
// both numbers written canonically, seq at most the ledger's last and slot
// the reported one — exactly the IDs the Sscanf-and-reformat check took.
func TestLeaseEverGrantedParsesExactly(t *testing.T) {
	m, err := NewMachine(testSpec("FLOAT16"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		m.Lease(time.Now(), time.Minute)
	}
	for _, tc := range []struct {
		id   string
		slot int
		want bool
	}{
		{"L1-s0", 0, true},
		{"L3-s4", 4, true},
		{"L4-s0", 0, false}, // above the ledger's sequence
		{"L0-s0", 0, false},
		{"L01-s0", 0, false},
		{"L+1-s0", 0, false},
		{"L1-s00", 0, false},
		{"L1-s0x", 0, false},
		{"L1-s+0", 0, false},
		{"L1-s-0", 0, false},
		{"L-1-s0", 0, false},
		{"L 1-s0", 0, false},
		{"L1-s0", 1, false}, // wrong slot
		{"L1-s-1", -1, true},
		{"L1-s0-s0", 0, false},
		{"l1-s0", 0, false},
		{"L1", 0, false},
		{"L1-s", 0, false},
		{"", 0, false},
	} {
		got := m.LeaseEverGranted(tc.id, tc.slot)
		if oracle := leaseEverGrantedSscanf(m.leaseSeq, tc.id, tc.slot); got != tc.want || oracle != tc.want {
			t.Errorf("LeaseEverGranted(%q, %d) = %v, Sscanf check %v, want %v", tc.id, tc.slot, got, oracle, tc.want)
		}
	}
}
