package campaign

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/sdc"
)

func stratSpec(dtype string) Spec {
	s := testSpec(dtype)
	s.Sampling = "stratified"
	return s
}

// assertStrataBitIdentical extends assertBitIdentical to the stratified
// summary: weights, per-stratum counts and spread accumulators must all be
// bit-exact.
func assertStrataBitIdentical(t *testing.T, label string, got, want *faultinj.Report) {
	t.Helper()
	assertBitIdentical(t, label, got, want)
	if (got.Strata == nil) != (want.Strata == nil) {
		t.Fatalf("%s: strata presence diverged: got=%v want=%v", label, got.Strata != nil, want.Strata != nil)
	}
	if want.Strata == nil {
		return
	}
	g, w := got.Strata, want.Strata
	if g.Blocks != w.Blocks || g.Bits != w.Bits || len(g.Counts) != len(w.Counts) {
		t.Fatalf("%s: strata dims diverged", label)
	}
	for h := range w.Counts {
		if math.Float64bits(g.Weight[h]) != math.Float64bits(w.Weight[h]) {
			t.Fatalf("%s: stratum %d weight diverged", label, h)
		}
		if g.Counts[h] != w.Counts[h] {
			t.Fatalf("%s: stratum %d counts diverged: %+v vs %+v", label, h, g.Counts[h], w.Counts[h])
		}
	}
	if (g.SpreadSum == nil) != (w.SpreadSum == nil) {
		t.Fatalf("%s: strata spread presence diverged", label)
	}
	for h := range w.SpreadSum {
		if math.Float64bits(g.SpreadSum[h]) != math.Float64bits(w.SpreadSum[h]) || g.SpreadN[h] != w.SpreadN[h] {
			t.Fatalf("%s: stratum %d spread diverged", label, h)
		}
	}
}

// driveMachine runs a whole campaign through m in-process: lease, execute
// the lease the way a worker would, accept — until the ledger is done. It
// returns the leases in grant order.
func driveMachine(t *testing.T, m *Machine) []*Lease {
	t.Helper()
	var granted []*Lease
	for !m.Done() {
		l := m.Lease(time.Now(), time.Minute)
		if l == nil {
			t.Fatalf("no lease while %d/%d slots done", m.Completed(), m.Spec().Slots())
		}
		granted = append(granted, l)
		rep, err := ExecuteLease(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first, err := m.Accept(l.Slot, rep); err != nil || !first {
			t.Fatalf("slot %d report: first=%v err=%v", l.Slot, first, err)
		}
	}
	return granted
}

// TestStratifiedLeaseGating drives a Machine directly (no HTTP): main
// slots must not lease until every pilot slot has reported, the lease
// order must visit pilots in slot order, and only main leases carry the
// allocation table.
func TestStratifiedLeaseGating(t *testing.T) {
	spec := stratSpec("FLOAT16")
	m, err := NewMachine(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec = m.Spec()
	granted := driveMachine(t, m)
	if len(granted) != spec.Slots() {
		t.Fatalf("leased %d slots, want %d", len(granted), spec.Slots())
	}
	for i, l := range granted {
		want := "pilot"
		if i >= spec.Shards {
			want = "main"
		}
		if l.Phase != want {
			t.Fatalf("lease %d was %q, want %q (pilots must all precede mains)", i, l.Phase, want)
		}
		if (l.Table != nil) != (want == "main") {
			t.Fatalf("lease %d (%s): allocation table present=%v", i, l.Phase, l.Table != nil)
		}
	}
	if m.PilotStrata() == nil {
		t.Fatal("finished stratified ledger has no pilot strata")
	}
	want, err := solo(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.FinalReport()
	if err != nil {
		t.Fatal(err)
	}
	assertStrataBitIdentical(t, "direct drive", got.Datapath, want)
}

// TestStratifiedSnapshotJSONRoundTrip ensures the NDJSON stream record for
// a stratified campaign survives serialize/deserialize bit-exactly,
// including the hex-encoded stratum weights.
func TestStratifiedSnapshotJSONRoundTrip(t *testing.T) {
	m, err := NewMachine(stratSpec("FLOAT16"), 0)
	if err != nil {
		t.Fatal(err)
	}
	driveMachine(t, m)

	snap := m.Snapshot()
	if !snap.Done || snap.Injections != m.Spec().N || snap.PilotShards != m.Spec().Shards {
		t.Fatalf("final snapshot off: %+v", snap)
	}
	line, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"strata_weights"`) {
		t.Fatalf("stream record missing strata_weights: %s", line)
	}
	var back Snapshot
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sampling != snap.Sampling || back.PilotShards != snap.PilotShards ||
		back.CompletedShards != snap.CompletedShards || back.Injections != snap.Injections ||
		back.Done != snap.Done {
		t.Fatalf("snapshot round trip diverged:\n got %+v\nwant %+v", back, snap)
	}
	if math.Float64bits(back.SDC1) != math.Float64bits(snap.SDC1) ||
		math.Float64bits(back.SDC1CI95) != math.Float64bits(snap.SDC1CI95) {
		t.Fatal("snapshot estimates not bit-exact after round trip")
	}
	if len(back.StrataWeights) != len(snap.StrataWeights) {
		t.Fatalf("weights length diverged: %d vs %d", len(back.StrataWeights), len(snap.StrataWeights))
	}
	for h := range snap.StrataWeights {
		if math.Float64bits(back.StrataWeights[h]) != math.Float64bits(snap.StrataWeights[h]) {
			t.Fatalf("stratum %d weight not bit-exact after round trip", h)
		}
		if back.StrataTrials[h] != snap.StrataTrials[h] {
			t.Fatalf("stratum %d trials diverged", h)
		}
	}
	for i := range snap.PerBlock {
		if back.PerBlock[i] != snap.PerBlock[i] {
			t.Fatalf("per-block aggregate %d diverged", i)
		}
	}
}

// stratifiedRefused are the specs the sampling rules refuse.
var stratifiedRefused = []Spec{
	{N: 10, Sampling: "sideways"},
	{N: 100, Sampling: "stratified", Select: "perbit", Param: 3},
	{N: 100, Sampling: "stratified", Select: "perlayer", Param: 0},
	// Pilot-free needs a prior: this used to normalize to PilotN 0, then to
	// the default pilot on a second Normalize.
	{Net: "ConvNet", N: 100, Sampling: "stratified", PilotN: -1},
}

// TestSpecNormalizeStratified covers the sampling-specific validation and
// the slot geometry helpers.
func TestSpecNormalizeStratified(t *testing.T) {
	for i, s := range stratifiedRefused {
		if err := s.Normalize(); err == nil {
			t.Fatalf("bad spec %d passed validation: %+v", i, s)
		}
	}
	neg := Spec{N: 100, Sampling: "stratified", PilotN: -1}
	if err := neg.Normalize(); err == nil || !strings.Contains(err.Error(), "prior_path") {
		t.Fatalf("negative pilot without a prior: error %v, want one naming prior_path", err)
	}

	s := Spec{N: 100, Shards: 4, Sampling: "stratified"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	pilot, _ := engine.PilotBudget(s.N, 0)
	if s.PilotN != pilot {
		t.Fatalf("PilotN defaulted to %d, want %d", s.PilotN, pilot)
	}
	if !s.Stratified() || s.Slots() != 2*s.Shards {
		t.Fatalf("slot geometry off: stratified=%v slots=%d shards=%d", s.Stratified(), s.Slots(), s.Shards)
	}
	for slot := 0; slot < s.Slots(); slot++ {
		phase, shard := s.SlotPhase(slot)
		wantPhase := "pilot"
		if slot%2 == 1 {
			wantPhase = "main"
		}
		if phase != wantPhase || shard != slot/2 {
			t.Fatalf("slot %d mapped to (%q, %d), want (%q, %d)", slot, phase, shard, wantPhase, slot/2)
		}
	}
	opt := s.Options()
	if opt.Sampling != engine.SamplingStratified || opt.PilotN != s.PilotN {
		t.Fatalf("Options did not carry sampling config: %+v", opt)
	}

	// Uniform specs must zero any stray pilot budget so spec equality
	// (checkpoint resume) is well defined.
	u := Spec{N: 100, PilotN: 33}
	if err := u.Normalize(); err != nil {
		t.Fatal(err)
	}
	if u.Sampling != "uniform" || u.PilotN != 0 || u.Slots() != u.Shards {
		t.Fatalf("uniform normalization off: %+v", u)
	}
	if phase, shard := u.SlotPhase(3); phase != "" || shard != 3 {
		t.Fatalf("uniform SlotPhase off: (%q, %d)", phase, shard)
	}
}

// TestLoadPriorRefusesUnusableArtifacts: a prior artifact the campaign
// cannot allocate from is refused, naming the file, by both readers —
// NewMachine and the solo runner — before any slot runs. Accepted, an
// unlabelled FLOAT16 pilot steers a DOUBLE campaign onto 16 low bits,
// leaves AlexNet's last blocks uninjected and panics a buffer img campaign
// on a non-CONV layer; a single-bit prior panics an MBU-3 campaign on a
// base bit no 3-bit span fits at, and a two-bit prior leaves a single-bit
// campaign's top-bit strata, 1/16 of its population, without a trial; a
// prior whose tallies no injections produce allocates from negative cells.
func TestLoadPriorRefusesUnusableArtifacts(t *testing.T) {
	_, pilot, err := SoloReport(stratSpec("FLOAT16"), nil)
	if err != nil || pilot == nil {
		t.Fatalf("pilot %v, err %v", pilot, err)
	}
	mbu2 := stratSpec("FLOAT16")
	mbu2.MBU = 2
	_, pilot2, err := SoloReport(mbu2, nil)
	if err != nil || pilot2 == nil {
		t.Fatalf("MBU-2 pilot %v, err %v", pilot2, err)
	}
	dir := t.TempDir()
	write := func(name string, a engine.StrataArtifact) string {
		path := filepath.Join(dir, name)
		if a.Pilot == nil {
			a.Pilot = pilot
		}
		if err := engine.WriteStrataArtifact(path, &a); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unlabelled := write("unlabelled.json", engine.StrataArtifact{})
	labelled := write("labelled.json", engine.StrataArtifact{Surface: "datapath", Net: "ConvNet", DType: "FLOAT16"})
	alexLabel := write("alexnet.json", engine.StrataArtifact{Surface: "datapath", Net: "AlexNet", DType: "FLOAT16"})
	// Same labels and grid as a single-bit campaign's; every block's top
	// base bit weighs 0, so its cells would get no injections.
	twoBit := write("mbu2.json", engine.StrataArtifact{Surface: "datapath", Net: "ConvNet", DType: "FLOAT16", Pilot: pilot2})
	// Right labels, grid and weights, but a stratum of −1,000,000 SDC-1
	// hits over no defined trials: its table cells would be negative.
	forgedPilot := pilot.Clone()
	forgedPilot.Counts[0].Hits[sdc.SDC1], forgedPilot.Counts[0].DefinedTrials[sdc.SDC1] = -1_000_000, 0
	forged := write("forged.json", engine.StrataArtifact{Surface: "datapath", Net: "ConvNet", DType: "FLOAT16", Pilot: forgedPilot})

	prior := func(s Spec, path string, edit func(*Spec)) Spec {
		s.Sampling, s.PriorPath = "stratified", path
		edit(&s)
		return s
	}
	for name, s := range map[string]Spec{
		"unlabelled FLOAT16 prior, DOUBLE campaign": prior(testSpec("DOUBLE"), unlabelled, func(s *Spec) { s.N = 3000 }),
		"unlabelled ConvNet prior, AlexNet":         prior(testSpec("FLOAT16"), unlabelled, func(s *Spec) { s.Net = "AlexNet" }),
		"single-bit prior, MBU-3 campaign":          prior(testSpec("FLOAT16"), labelled, func(s *Spec) { s.MBU = 3 }),
		"unlabelled datapath prior, img buffer":     prior(bufSpec(""), unlabelled, func(s *Spec) { s.DType, s.Buffer = "FLOAT16", "img" }),
		"AlexNet label over ConvNet's grid":         prior(testSpec("FLOAT16"), alexLabel, func(s *Spec) { s.Net = "AlexNet" }),
		"two-bit prior, single-bit campaign":        prior(testSpec("FLOAT16"), twoBit, func(*Spec) {}),
		"forged tallies":                            prior(testSpec("FLOAT16"), forged, func(*Spec) {}),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewMachine(s, 3); err == nil || !strings.Contains(err.Error(), s.PriorPath) {
				t.Fatalf("NewMachine: error %v, want a refusal naming %s", err, s.PriorPath)
			}
			if _, _, err := SoloReport(s, nil); err == nil || !strings.Contains(err.Error(), s.PriorPath) {
				t.Fatalf("SoloReport: error %v, want a refusal naming %s", err, s.PriorPath)
			}
		})
	}
}
