package campaign_test

// The distributed == solo contract, proven on the one campaign server:
// every test here submits its spec to a dev-mode controlplane.Plane,
// mounts Plane.Handler() on a loopback listener, drives it with real
// campaign.Workers (or hand-run leases, for the crash points), and
// byte-compares the merged report with the single-process run. They are
// an external test package because controlplane imports campaign.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// outBytes is what -out writes for a report: the inner surface report,
// indented.
func outBytes(t *testing.T, inner any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(inner, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openPlane opens a dev-mode plane, journaled when journal is non-empty.
func openPlane(t *testing.T, journal string) *controlplane.Plane {
	t.Helper()
	p, err := controlplane.New(controlplane.Config{JournalPath: journal, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func submit(t *testing.T, p *controlplane.Plane, spec campaign.Spec) string {
	t.Helper()
	st, err := p.Submit("", spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// handRun grants n leases and executes each inline the way a worker would,
// returning them in grant order — the deterministic way to stop a campaign
// at an exact slot count before a simulated crash.
func handRun(t *testing.T, p *controlplane.Plane, n int) []*campaign.Lease {
	t.Helper()
	var granted []*campaign.Lease
	for i := 0; i < n; i++ {
		resp := p.LeaseBatch(time.Now(), 1)
		if len(resp.Leases) != 1 {
			t.Fatalf("%d leases for hand-run slot %d of %d, want 1", len(resp.Leases), i, n)
		}
		l := resp.Leases[0]
		if (l.Phase == "main") != (l.Table != nil) {
			t.Fatalf("%s lease of slot %d: allocation table present=%v", l.Phase, l.Slot, l.Table != nil)
		}
		rep, err := campaign.ExecuteLease(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := campaign.ReportRequest{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: rep}
		if err := p.ReportBatch([]campaign.ReportRequest{req})[0]; err != nil {
			t.Fatal(err)
		}
		granted = append(granted, l)
	}
	return granted
}

// finish serves p over loopback HTTP, runs two workers until campaign id
// is done, stops them, and returns the final status and the -out bytes.
func finish(t *testing.T, p *controlplane.Plane, id string) (controlplane.Status, []byte) {
	t.Helper()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 2
	errs := make(chan error, workers)
	goldens := campaign.NewGoldenCache()
	for i := 0; i < workers; i++ {
		w := &campaign.Worker{
			Base: srv.URL, Name: fmt.Sprintf("w%d", i), Client: srv.Client(),
			GiveUp: 10 * time.Second, Goldens: goldens,
		}
		go func() { errs <- w.Run(ctx) }()
	}
	var st controlplane.Status
	for deadline := time.Now().Add(90 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if st, err = p.Get("", id); err != nil {
			t.Fatal(err)
		}
		if st.State == controlplane.StateDone {
			break
		}
		if st.State != controlplane.StateActive || time.Now().After(deadline) {
			t.Fatalf("campaign %s is %s with %d/%d slots, want done",
				id, st.State, st.Snapshot.CompletedShards, st.Snapshot.TotalShards)
		}
	}
	cancel()
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	got, err := p.FinalReportJSON("", id)
	if err != nil {
		t.Fatal(err)
	}
	return st, got
}

// checkDistributed runs spec solo and over a two-worker fleet and requires
// byte-identical -out files. own, when non-nil, is the surface's own
// Campaign.Run report: the distributed path must reproduce the engine
// exactly, not merely SoloReport. It returns the solo report and the
// finished campaign's status for surface-specific checks.
func checkDistributed(t *testing.T, spec campaign.Spec, own any) (*campaign.Report, controlplane.Status) {
	t.Helper()
	solo, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := outBytes(t, solo.Inner())
	if own != nil && !bytes.Equal(outBytes(t, own), want) {
		t.Fatal("SoloReport diverged from the surface's own Campaign.Run")
	}
	p := openPlane(t, "")
	st, got := finish(t, p, submit(t, p, spec))
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed report diverged from solo (%d vs %d bytes)", len(got), len(want))
	}
	if !st.Snapshot.Done || st.Snapshot.Injections != spec.N {
		t.Fatalf("snapshot off: done=%v injections=%d want %d", st.Snapshot.Done, st.Snapshot.Injections, spec.N)
	}
	if spec.Sampling == "stratified" && len(st.Snapshot.StrataWeights) == 0 {
		t.Fatal("stratified snapshot missing strata weights")
	}
	// Per-block aggregates come from the strata of a stratified campaign
	// and from the datapath's per-block tallies of a uniform one.
	if perBlock := solo.Datapath != nil || solo.Strata() != nil; perBlock != (len(st.Snapshot.PerBlock) > 0) {
		t.Fatalf("snapshot has %d per-block aggregates on a datapath=%v stratified=%v campaign",
			len(st.Snapshot.PerBlock), solo.Datapath != nil, solo.Strata() != nil)
	}
	return solo, st
}

// TestDistributedMatchesSolo is the subsystem's core contract: a campaign
// sharded over multiple workers through loopback HTTP merges bit-identical
// to the same spec run in a single process, across numeric formats.
func TestDistributedMatchesSolo(t *testing.T) {
	for _, dtype := range []string{"FLOAT16", "32b_rb10"} {
		t.Run(dtype, func(t *testing.T) {
			checkDistributed(t, campaign.TestSpec(dtype), nil)
		})
	}
}

// TestMBUDistributedMatchesSolo runs the core contract for datapath
// multi-bit-upset campaigns against the raw faultinj.Campaign.Run of the
// same spec, for both sampling designs.
func TestMBUDistributedMatchesSolo(t *testing.T) {
	for _, sampling := range []string{"uniform", "stratified"} {
		t.Run(sampling, func(t *testing.T) {
			spec := campaign.TestSpec("16b_rb10")
			spec.MBU = 3
			spec.Sampling = sampling
			if sampling == "stratified" {
				// Stratified campaigns track no values or spread.
				spec.TrackValues, spec.TrackSpread = 0, false
			}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			fc, err := spec.NewCampaign(nil)
			if err != nil {
				t.Fatal(err)
			}
			checkDistributed(t, spec, fc.Run(spec.Options()))
		})
	}
}

// TestStratifiedDistributedMatchesSolo is the stratified twin of the core
// contract: pilot slots first, the Neyman table built at the boundary,
// main slots leased with the serialized table.
func TestStratifiedDistributedMatchesSolo(t *testing.T) {
	for _, dtype := range []string{"FLOAT16", "32b_rb10"} {
		t.Run(dtype, func(t *testing.T) {
			spec := campaign.StratSpec(dtype)
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			_, st := checkDistributed(t, spec, nil)
			snap := st.Snapshot
			if snap.Sampling != "stratified" || snap.PilotShards != spec.Shards {
				t.Fatalf("stratified snapshot fields off: sampling=%q pilot_shards=%d", snap.Sampling, snap.PilotShards)
			}
			if len(snap.StrataTrials) != len(snap.StrataWeights) {
				t.Fatalf("snapshot strata arrays off: %d weights, %d trials", len(snap.StrataWeights), len(snap.StrataTrials))
			}
			total := 0
			for _, n := range snap.StrataTrials {
				total += n
			}
			if total != spec.N {
				t.Fatalf("strata trials sum to %d, want %d", total, spec.N)
			}
		})
	}
}

// TestSiteEvalDistributedMatchesSolo extends the contract to a site-draw
// campaign: a bit-plane campaign distributes bit-identically — PreMasked
// tally included — with the stratified design allocating whole draw units.
func TestSiteEvalDistributedMatchesSolo(t *testing.T) {
	spec := campaign.TestSpec("16b_rb10")
	spec.Sampling = "stratified"
	spec.Eval = "site-bitplane"
	solo, _ := checkDistributed(t, spec, nil)
	if solo.Datapath.PreMasked == 0 {
		t.Error("bit-plane campaign never pre-masked an injection")
	}
}

// TestBufferDistributedMatchesSolo extends the core contract to the
// Eyeriss buffer surface, against the raw eyeriss.Campaign.Run of the same
// spec, for both sampling designs and for multi-bit upsets.
func TestBufferDistributedMatchesSolo(t *testing.T) {
	cases := []struct {
		name     string
		sampling string
		mbu      int
	}{
		{"uniform", "uniform", 0},
		{"stratified", "stratified", 0},
		{"uniform-mbu3", "uniform", 3},
		{"stratified-mbu3", "stratified", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := campaign.BufSpec(tc.sampling)
			spec.MBU = tc.mbu
			checkBufferDistributed(t, spec)
		})
	}
}

// TestBufferSiteEvalDistributedMatchesSolo is the buffer-surface site-draw
// version: a PSum REG bit-plane campaign, pre-screen tally included.
func TestBufferSiteEvalDistributedMatchesSolo(t *testing.T) {
	spec := campaign.BufSpec("stratified")
	spec.Buffer = "psum"
	spec.Eval = "site-bitplane"
	checkBufferDistributed(t, spec)
}

func checkBufferDistributed(t *testing.T, spec campaign.Spec) {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ec, b, err := spec.NewBufferCampaign()
	if err != nil {
		t.Fatal(err)
	}
	checkDistributed(t, spec, ec.Run(b, spec.BufferOptions()))
}

// TestSystolicDistributedMatchesSolo extends the core contract to the
// systolic surface across its dataflow axis, against the raw
// systolic.Campaign.Run of the same spec: both sampling designs, a
// site-draw eval mode, MBU campaigns, and all three dataflows.
func TestSystolicDistributedMatchesSolo(t *testing.T) {
	cases := []struct {
		name     string
		sampling string
		eval     string
		mbu      int
		dataflow string
	}{
		{"uniform", "uniform", "", 0, ""},
		{"stratified", "stratified", "", 0, ""},
		{"site-bitplane", "uniform", "site-bitplane", 0, ""},
		{"mbu3", "stratified", "", 3, ""},
		{"output-uniform", "uniform", "", 0, "output"},
		{"output-stratified-mbu3", "stratified", "", 3, "output"},
		{"output-site-bitplane", "uniform", "site-bitplane", 0, "output"},
		{"input-uniform-mbu2", "uniform", "", 2, "input"},
		{"input-stratified", "stratified", "", 0, "input"},
		{"input-site-bitplane", "uniform", "site-bitplane", 0, "input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := campaign.SysSpec(tc.sampling)
			spec.Eval = tc.eval
			spec.MBU = tc.mbu
			spec.Dataflow = tc.dataflow
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			sc, err := spec.NewSystolicCampaign()
			if err != nil {
				t.Fatal(err)
			}
			checkDistributed(t, spec, sc.Run(spec.SystolicOptions()))
		})
	}
}

// checkPriorSeeded is the strata-artifact contract: a campaign seeded from
// a previous campaign's persisted pilot strata must build exactly the
// allocation table the fresh pilot produced — given the same main-phase
// budget — its every lease must be a table-carrying main phase, and the
// prior-allocated distributed run must merge byte-identical to its solo
// twin.
func checkPriorSeeded(t *testing.T, fresh campaign.Spec) {
	t.Helper()
	seeded := fresh
	if err := fresh.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, pilot, err := campaign.SoloReport(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pilot == nil {
		t.Fatal("stratified run never surfaced its pilot strata")
	}
	pilotN, mainN := engine.PilotBudget(fresh.N, fresh.PilotN)
	freshTable := engine.BuildStratumTable(pilot, mainN, 1)

	path := filepath.Join(t.TempDir(), "strata.json")
	if err := engine.WriteStrataArtifact(path, &engine.StrataArtifact{
		Surface: fresh.Surface, Net: fresh.Net, DType: fresh.DType, Buffer: fresh.Buffer,
		N: fresh.N, PilotN: pilotN, Pilot: pilot,
	}); err != nil {
		t.Fatal(err)
	}

	// A prior-seeded campaign spends its whole budget in the main phase;
	// give it the fresh campaign's main budget so the allocations must
	// coincide exactly.
	seeded.N = mainN
	seeded.PriorPath = path
	if err := seeded.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !seeded.PriorAllocated() || seeded.Slots() != seeded.Shards {
		t.Fatalf("prior-seeded spec geometry off: pilot_n=%d slots=%d", seeded.PilotN, seeded.Slots())
	}
	if phase, shard := seeded.SlotPhase(1); phase != "main" || shard != 1 {
		t.Fatalf("prior-seeded SlotPhase off: (%q, %d)", phase, shard)
	}
	prior, err := seeded.LoadPrior()
	if err != nil {
		t.Fatal(err)
	}
	_, seededMainN := engine.PilotBudget(seeded.N, seeded.PilotN)
	seededTable := engine.BuildStratumTable(prior, seededMainN, 1)
	if seededTable.MainN != freshTable.MainN ||
		seededTable.Blocks != freshTable.Blocks || seededTable.Bits != freshTable.Bits {
		t.Fatalf("table dims diverged: seeded MainN=%d fresh MainN=%d", seededTable.MainN, freshTable.MainN)
	}
	for h := range freshTable.Alloc {
		if seededTable.Alloc[h] != freshTable.Alloc[h] {
			t.Fatalf("stratum %d allocation diverged: %d vs %d", h, seededTable.Alloc[h], freshTable.Alloc[h])
		}
		if math.Float64bits(seededTable.Weight[h]) != math.Float64bits(freshTable.Weight[h]) {
			t.Fatalf("stratum %d weight diverged", h)
		}
	}

	want, soloPilot, err := campaign.SoloReport(seeded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if soloPilot != nil {
		t.Fatal("prior-allocated solo run reported pilot strata")
	}
	p := openPlane(t, "")
	id := submit(t, p, seeded)
	if probe := handRun(t, p, 1)[0]; probe.Phase != "main" {
		t.Fatalf("prior-allocated lease is not a main phase: %+v", probe)
	}
	_, got := finish(t, p, id)
	if !bytes.Equal(got, outBytes(t, want.Inner())) {
		t.Fatal("prior-allocated distributed report diverged from solo")
	}
	if _, _, planePilot, err := p.Result("", id); err != nil || planePilot != nil {
		t.Fatalf("prior-allocated campaign reported pilot strata (err %v)", err)
	}
}

func TestPriorSeededAllocation(t *testing.T) {
	checkPriorSeeded(t, campaign.BufSpec("stratified"))
}

func TestSystolicPriorSeededAllocation(t *testing.T) {
	checkPriorSeeded(t, campaign.SysSpec("stratified"))
}

// checkJournalResume kills a campaign (Close, then reopen on the same
// journal) after each of the given hand-run slot counts, finishes it with
// a fleet, and requires every generation to restore exactly the slots
// already journaled — never re-running them — and the final report to be
// byte-identical to the uninterrupted solo run. A restart on the finished
// journal still serves the report once; the restart after that has
// retired the campaign. It returns the hand-run leases in grant order.
func checkJournalResume(t *testing.T, spec campaign.Spec, kills ...int) []*campaign.Lease {
	t.Helper()
	solo, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := outBytes(t, solo.Inner())
	journal := filepath.Join(t.TempDir(), "campaign.journal")

	var id string
	var granted []*campaign.Lease
	reopen := func() *controlplane.Plane {
		p := openPlane(t, journal)
		if id == "" {
			id = submit(t, p, spec)
		}
		st, err := p.Get("", id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Snapshot.ResumedShards != len(granted) || st.Snapshot.CompletedShards != len(granted) {
			t.Fatalf("generation after %d journaled slots resumed %d and counts %d complete",
				len(granted), st.Snapshot.ResumedShards, st.Snapshot.CompletedShards)
		}
		return p
	}
	for _, k := range kills {
		p := reopen()
		granted = append(granted, handRun(t, p, k)...)
		p.Close()
	}
	p := reopen()
	st, got := finish(t, p, id)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed campaign diverged from solo")
	}
	if st.Snapshot.ResumedShards != len(granted) {
		t.Fatalf("finished with %d resumed slots, want %d", st.Snapshot.ResumedShards, len(granted))
	}
	p.Close()

	cold := openPlane(t, journal)
	if again, err := cold.FinalReportJSON("", id); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("finished journal did not re-serve its report (err %v)", err)
	}
	cold.Close()
	if left := openPlane(t, journal).List(""); len(left) != 0 {
		t.Fatalf("finished campaign survived load-time compaction: %+v", left)
	}
	return granted
}

// TestCheckpointResume: a uniform datapath campaign killed after two
// shards.
func TestCheckpointResume(t *testing.T) {
	checkJournalResume(t, campaign.TestSpec("FLOAT16"), 2)
}

// TestStratifiedCheckpointResume kills a stratified campaign twice — first
// mid-pilot, then exactly at the pilot→allocation boundary (all pilot
// slots journaled, no main slot run). The third generation sees only
// pilot events and must rebuild the allocation table from them before its
// first lease, which is therefore a table-carrying main slot.
func TestStratifiedCheckpointResume(t *testing.T) {
	spec := campaign.StratSpec("FLOAT16")
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	granted := checkJournalResume(t, spec, 2, spec.Shards-2, 1)
	if last := granted[len(granted)-1]; last.Phase != "main" || last.Table == nil {
		t.Fatalf("post-boundary resume did not lease a main slot with a table: %+v", last)
	}
}

// TestBufferCheckpointResume kills a stratified buffer campaign after two
// pilot slots.
func TestBufferCheckpointResume(t *testing.T) {
	checkJournalResume(t, campaign.BufSpec("stratified"), 2)
}

// TestSystolicCheckpointResume kills a stratified systolic campaign after
// two pilot slots — including under the output-stationary dataflow with a
// multi-bit upset, whose pilot strata shape the allocation.
func TestSystolicCheckpointResume(t *testing.T) {
	cases := []struct {
		name     string
		dataflow string
		mbu      int
	}{
		{"weight", "", 0},
		{"output-mbu3", "output", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := campaign.SysSpec("stratified")
			spec.Dataflow = tc.dataflow
			spec.MBU = tc.mbu
			checkJournalResume(t, spec, 2)
		})
	}
}

// TestWorkerSharesOneGoldenAcrossSurfaces pins the shared-golden contract:
// one worker executing datapath, buffer and systolic leases over the same
// (network, weights, format, input) coordinate — interleaved across two
// executor goroutines, uniform and stratified, pilot and main — pays for
// exactly one golden forward pass, every campaign still merges
// byte-identical to its solo run, and after Filter SRAM leases (which patch
// cached quantized weights on the shard's private network) the cached
// golden still equals a fresh forward pass bit for bit. Run under -race it
// also proves the prepared campaigns are safe to share between executors.
func TestWorkerSharesOneGoldenAcrossSurfaces(t *testing.T) {
	specs := []campaign.Spec{campaign.TestSpec("16b_rb10"), campaign.BufSpec("uniform"), campaign.BufSpec("stratified"), campaign.SysSpec("stratified")}
	specs[1].Buffer = "filter"
	specs[3].MBU = 2
	p := openPlane(t, "")
	ids := make([]string, len(specs))
	for i := range specs {
		specs[i].Inputs = 1
		ids[i] = submit(t, p, specs[i])
	}

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goldens := campaign.NewGoldenCache()
	w := &campaign.Worker{
		Base: srv.URL, Name: "w", Client: srv.Client(), Procs: 2,
		GiveUp: 10 * time.Second, Goldens: goldens,
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	for i, id := range ids {
		for deadline := time.Now().Add(90 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			st, err := p.Get("", id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == controlplane.StateDone {
				break
			}
			if st.State != controlplane.StateActive || time.Now().After(deadline) {
				t.Fatalf("campaign %s is %s, want done", id, st.State)
			}
		}
		got, err := p.FinalReportJSON("", id)
		if err != nil {
			t.Fatal(err)
		}
		solo, _, err := campaign.SoloReport(specs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, outBytes(t, solo.Inner())) {
			t.Errorf("%s campaign diverged from its solo run", specs[i].Surface)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	hits, misses := goldens.Stats()
	if misses != 1 {
		t.Errorf("worker computed %d goldens for one coordinate, want 1 (%d hits)", misses, hits)
	}
	net := models.Build("ConvNet")
	key := campaign.GoldenKey{Net: "ConvNet", WeightsHash: net.WeightsHash(), DType: "16b_rb10", Input: 0}
	cached := goldens.Get(key, func() *network.Execution {
		t.Error("the worker's golden is not cached under the expected key")
		return nil
	})
	fresh := net.Forward(numeric.Fx16RB10, models.InputFor("ConvNet", 0))
	for l := range fresh.Acts {
		if !tensor.BitIdentical(fresh.Acts[l], cached.Acts[l]) {
			t.Fatalf("cached golden differs from a fresh forward pass at layer %d", l)
		}
	}
}

// TestSoloSharesGoldensAcrossShardsAndPhases: a solo run on any surface
// resolves each input's golden once for the whole campaign — through the
// caller's cache when given one, which the campaign consults once per input
// however many shards and phases read it, privately otherwise — and the two
// are byte-identical.
func TestSoloSharesGoldensAcrossShardsAndPhases(t *testing.T) {
	for _, spec := range []campaign.Spec{campaign.StratSpec("16b_rb10"), campaign.BufSpec("stratified"), campaign.SysSpec("stratified")} {
		goldens := campaign.NewGoldenCache()
		shared, _, err := campaign.SoloReport(spec, goldens)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := goldens.Stats()
		if misses != spec.Inputs || hits != 0 {
			t.Errorf("%s: %d misses and %d hits over %d inputs, want one miss each and no hits",
				spec.Surface, misses, hits, spec.Inputs)
		}
		private, _, err := campaign.SoloReport(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outBytes(t, shared.Inner()), outBytes(t, private.Inner())) {
			t.Errorf("%s: shared-cache solo run diverged from the private-memo run", spec.Surface)
		}
	}
}
