package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/accel"
	"repro/internal/campaign"
	"repro/internal/controlplane"
	"repro/internal/faultinj"
	"repro/internal/layers"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/pearray"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// probes measures the layers below the campaign service with small
// fixed-count calls into their exported functions. Counts are fixed (and
// divided by the scale's ProbeDiv), never durations, so every count and
// ratio of counts repeats exactly for a seed; times are host time.
func probes(l *layerMetrics, cfg config) error {
	pr := &prober{l: l, seed: specSeed(cfg.Seed, 9, 0), div: cfg.Scale.ProbeDiv}
	pr.numeric()
	pr.network()
	steps := []func() error{pr.faultinj, pr.buffer, pr.systolic, pr.engine, pr.wire}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if err := pr.planeReplay(cfg); err != nil {
		return err
	}
	return pr.idlePickup(cfg)
}

type prober struct {
	l    *layerMetrics
	seed int64
	div  int
	// campaigns holds the prepared datapath campaigns the faultinj probes
	// share, by network, format and denseness.
	campaigns map[string]*faultinj.Campaign
	// shards holds the per-surface shard reports of surfaceShards.
	shards map[string][]*campaign.Report
}

// n scales a full-size probe count.
func (pr *prober) n(full int) int { return max(full/pr.div, 2) }

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

func (pr *prober) numeric() {
	calls := pr.n(1_000_000)
	per := calls / len(numeric.Types)
	var q, f time.Duration
	for _, t := range numeric.Types {
		v := 0.37
		t0 := time.Now()
		for i := 0; i < per; i++ {
			v = t.Quantize(v*1.0000001 + 0.001)
		}
		q += time.Since(t0)
		sink += v
		t0 = time.Now()
		for i := 0; i < per; i++ {
			v = t.FlipBit(0.37, i%t.Width())
		}
		f += time.Since(t0)
		sink += v
	}
	total := float64(per * len(numeric.Types))
	pr.l.set("numeric.quantize_ns", float64(q.Nanoseconds())/total)
	pr.l.set("numeric.flipbit_ns", float64(f.Nanoseconds())/total)
}

func (pr *prober) network() {
	for _, name := range models.Names {
		net := models.Build(name)
		net.EnableQuantCache()
		in := models.InputFor(name, 0)
		t0 := time.Now()
		golden := net.Forward(numeric.Float16, in)
		pr.l.set("network.golden_forward_ms."+name, ms(time.Since(t0)))
		if name != "ConvNet" && name != "AlexNet" {
			continue
		}
		// The same seeded faults resume through the incremental path and
		// through the dense reference.
		prof := accel.NewProfile(net, numeric.Float16)
		rng := rand.New(rand.NewSource(pr.seed))
		sites := make([]accel.Site, pr.n(200))
		for i := range sites {
			sites[i] = prof.RandomSite(rng)
		}
		resume := func(f func(numeric.Type, *network.Execution, int, *layers.Fault) *network.Execution) float64 {
			t0 := time.Now()
			for i := range sites {
				fault := sites[i].Fault
				sink += f(numeric.Float16, golden, sites[i].Layer, &fault).Output().Data[0]
			}
			return float64(time.Since(t0).Microseconds()) / float64(len(sites))
		}
		pr.l.set("network.resume_us."+name, resume(net.ForwardFrom))
		pr.l.set("network.resume_dense_us."+name, resume(net.ForwardFromDense))
	}
}

// datapathRun times one single-threaded faultinj campaign with its golden
// already computed, and returns microseconds per injection and the report.
// Campaigns over the same network and format share one prepared campaign
// object, as a worker's leases do; the dense baseline gets a fresh one
// because it must not see the quantized-parameter cache.
func (pr *prober) datapathRun(spec campaign.Spec, dense bool) (float64, *campaign.Report, error) {
	spec.Shards = 1
	if err := spec.Normalize(); err != nil {
		return 0, nil, err
	}
	key := fmt.Sprintf("%s|%s|%v", spec.Net, spec.DType, dense)
	c := pr.campaigns[key]
	if c == nil {
		var err error
		if c, err = spec.NewCampaign(nil); err != nil {
			return 0, nil, err
		}
		if !dense {
			c.Net.EnableQuantCache()
		}
		for i := range c.Inputs {
			c.Golden(i)
		}
		if pr.campaigns == nil {
			pr.campaigns = make(map[string]*faultinj.Campaign)
		}
		pr.campaigns[key] = c
	}
	opt := spec.Options()
	opt.Dense = dense
	t0 := time.Now()
	r := c.Run(opt)
	return float64(time.Since(t0).Microseconds()) / float64(spec.N), &campaign.Report{Datapath: r}, nil
}

func (pr *prober) faultinj() error {
	for _, net := range []string{"ConvNet", "AlexNet"} {
		spec := campaign.Spec{Net: net, DType: "FLOAT16", N: 1, Inputs: 1}
		if err := spec.Normalize(); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := spec.NewCampaign(nil); err != nil {
			return err
		}
		pr.l.set("faultinj.new_ms."+net, ms(time.Since(t0)))
	}
	type probe struct {
		metric string
		spec   campaign.Spec
		dense  bool
		masked string
	}
	conv := func(dt, eval string, n int) campaign.Spec {
		return campaign.Spec{Net: "ConvNet", DType: dt, N: pr.n(n), Inputs: 1, Seed: pr.seed, Eval: eval}
	}
	alex := func(dt string) campaign.Spec {
		return campaign.Spec{Net: "AlexNet", DType: dt, N: pr.n(400), Inputs: 1, Seed: pr.seed}
	}
	list := []probe{
		{metric: "faultinj.us_per_inj.perbit.ConvNet.FLOAT16", spec: conv("FLOAT16", "", 4000), masked: "faultinj.masked_frac.ConvNet.FLOAT16"},
		{metric: "faultinj.us_per_inj.site_scalar.ConvNet.FLOAT16", spec: conv("FLOAT16", "site-scalar", 4000)},
		{metric: "faultinj.us_per_inj.site_bitplane.ConvNet.FLOAT16", spec: conv("FLOAT16", "site-bitplane", 4000)},
		{metric: "faultinj.us_per_inj.dense.ConvNet.FLOAT16", spec: conv("FLOAT16", "", 1000), dense: true},
		{metric: "faultinj.us_per_inj.perbit.ConvNet.DOUBLE", spec: conv("DOUBLE", "", 4000)},
		{metric: "faultinj.us_per_inj.perbit.ConvNet.32b_rb10", spec: conv("32b_rb10", "", 4000)},
		{metric: "faultinj.us_per_inj.perbit.AlexNet.FLOAT16", spec: alex("FLOAT16"), masked: "faultinj.masked_frac.AlexNet.FLOAT16"},
		{metric: "faultinj.us_per_inj.perbit.AlexNet.32b_rb10", spec: alex("32b_rb10")},
	}
	for _, p := range list {
		us, r, err := pr.datapathRun(p.spec, p.dense)
		if err != nil {
			return fmt.Errorf("probe %s: %v", p.metric, err)
		}
		pr.l.set(p.metric, us)
		if p.masked != "" {
			pr.l.set(p.masked, float64(r.Masked())/float64(r.Counts().Trials))
		}
	}
	_, r, err := pr.datapathRun(conv("32b_rb26", "site-bitplane", 4000), false)
	if err != nil {
		return err
	}
	pr.l.set("faultinj.premasked_frac.ConvNet.32b_rb26", float64(r.Datapath.PreMasked)/float64(r.Counts().Trials))

	// The per-network-layer table: one fixed-block campaign per block.
	for net, n := range map[string]int{"ConvNet": 1000, "AlexNet": 120} {
		blocks := models.Build(net).NumBlocks()
		for b := 0; b < blocks; b++ {
			spec := campaign.Spec{Net: net, DType: "FLOAT16", N: pr.n(n), Inputs: 1, Seed: pr.seed, Select: "perlayer", Param: b}
			us, r, err := pr.datapathRun(spec, false)
			if err != nil {
				return fmt.Errorf("probe %s block %d: %v", net, b, err)
			}
			pr.l.set(fmt.Sprintf("faultinj.block_us_per_inj.%s.b%d", net, b), us)
			pr.l.set(fmt.Sprintf("faultinj.block_masked_frac.%s.b%d", net, b), float64(r.Masked())/float64(r.Counts().Trials))
		}
	}
	return nil
}

func (pr *prober) buffer() error {
	for i, name := range campaign.BufferNames {
		spec := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: pr.n(120), Inputs: 1, Seed: pr.seed, Shards: 1, Surface: "buffer", Buffer: name}
		if err := spec.Normalize(); err != nil {
			return err
		}
		t0 := time.Now()
		c, b, err := spec.NewBufferCampaign()
		if err != nil {
			return err
		}
		if i == 0 {
			pr.l.set("eyeriss.new_campaign_ms", ms(time.Since(t0)))
		}
		t0 = time.Now()
		r := c.Run(b, spec.BufferOptions())
		pr.l.set("eyeriss.us_per_inj."+name, float64(time.Since(t0).Microseconds())/float64(spec.N))
		sink += float64(r.Counts.Trials)
	}
	return nil
}

func (pr *prober) systolic() error {
	net := models.Build("ConvNet")
	in := models.InputFor("ConvNet", 0)
	conv1 := net.Layers[net.MACLayerIndices()[0]]
	for i, flow := range systolic.DataflowNames {
		spec := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: pr.n(400), Inputs: 1, Seed: pr.seed, Shards: 1, Surface: "systolic", Dataflow: flow}
		if err := spec.Normalize(); err != nil {
			return err
		}
		t0 := time.Now()
		c, err := spec.NewSystolicCampaign()
		if err != nil {
			return err
		}
		if i == 0 {
			pr.l.set("systolic.new_campaign_ms", ms(time.Since(t0)))
		}
		t0 = time.Now()
		r := c.Run(spec.SystolicOptions())
		pr.l.set("systolic.us_per_inj."+flow, float64(time.Since(t0).Microseconds())/float64(spec.N))
		pr.l.set("systolic.arch_masked_frac."+flow, float64(r.ArchMasked)/float64(r.Counts.Trials))

		// The cycle-level simulators, fault-free, on ConvNet conv1: the
		// before-number for folding pearray into systolic.
		df, err := systolic.ParseDataflow(flow)
		if err != nil {
			return err
		}
		t0 = time.Now()
		out := systolic.NewFlow(conv1, numeric.Fx16RB10, systolic.DefaultParams, df).Run(in, nil)
		pr.l.set("systolic.sim_ms."+flow, ms(time.Since(t0)))
		sink += out.Data[0]
	}
	t0 := time.Now()
	out := pearray.New(conv1.(*layers.ConvLayer), numeric.Fx16RB10).Run(in, nil)
	pr.l.set("pearray.sim_ms", ms(time.Since(t0)))
	sink += out.Data[0]
	return nil
}

// surfaceShards runs one small fixed campaign per fault surface as eight
// shards, once, and returns the shard reports the engine and wire probes
// merge and serialize, with the datapath spec for the ledger probe.
func (pr *prober) surfaceShards() (map[string][]*campaign.Report, campaign.Spec, error) {
	specs := map[string]campaign.Spec{
		"datapath": {Net: "ConvNet", DType: "FLOAT16", N: pr.n(800), Inputs: 1, Seed: pr.seed, Shards: 8, TrackValues: 32},
		"buffer":   {Net: "ConvNet", DType: "16b_rb10", N: pr.n(80), Inputs: 1, Seed: pr.seed, Shards: 8, Surface: "buffer", Buffer: "global"},
		"systolic": {Net: "ConvNet", DType: "16b_rb10", N: pr.n(160), Inputs: 1, Seed: pr.seed, Shards: 8, Surface: "systolic"},
	}
	if pr.shards == nil {
		pr.shards = make(map[string][]*campaign.Report)
		for surface, spec := range specs {
			if err := spec.Normalize(); err != nil {
				return nil, spec, err
			}
			_, slots, err := shardedBytes(spec, nil)
			if err != nil {
				return nil, spec, err
			}
			pr.shards[surface] = slots
		}
	}
	return pr.shards, specs["datapath"], nil
}

func (pr *prober) engine() error {
	const reps = 200
	shards, _, err := pr.surfaceShards()
	if err != nil {
		return err
	}
	for surface, slots := range shards {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			sink += float64(campaign.MergeReports(slots).Counts().Trials)
		}
		pr.l.set("engine.merge_us."+surface, float64(time.Since(t0).Microseconds())/reps)
	}

	// Uniform against stratified at the same budget: the CI half-width
	// ratio is a pure function of the seed, and the pilot it merges feeds
	// the allocation-table timing.
	uni := campaign.Spec{Net: "ConvNet", DType: "16b_rb10", N: pr.n(3000), Inputs: 1, Seed: pr.seed, Shards: 8}
	strat := uni
	strat.Sampling = "stratified"
	ru, _, err := campaign.SoloReport(uni, nil)
	if err != nil {
		return err
	}
	rs, pilot, err := campaign.SoloReport(strat, nil)
	if err != nil {
		return err
	}
	_, ciU := ru.SDCEstimate(sdc.SDC1)
	_, ciS := rs.SDCEstimate(sdc.SDC1)
	if ciS > 0 {
		pr.l.set("engine.ci_ratio.ConvNet.16b_rb10", ciU/ciS)
	}
	if err := strat.Normalize(); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		sink += float64(len(strat.BuildTable(pilot).Alloc))
	}
	pr.l.set("engine.build_table_us", float64(time.Since(t0).Microseconds())/reps)
	return nil
}

// wire measures the report codec and the per-slot ledger operations.
func (pr *prober) wire() error {
	const reps = 200
	shards, spec, err := pr.surfaceShards()
	if err != nil {
		return err
	}
	var enc, dec time.Duration
	for surface, slots := range shards {
		var data []byte
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if data, err = json.Marshal(slots[0]); err != nil {
				return err
			}
		}
		enc += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			var r campaign.Report
			if err := json.Unmarshal(data, &r); err != nil {
				return err
			}
		}
		dec += time.Since(t0)
		pr.l.set("campaign.report_json_bytes."+surface, float64(len(data)))

		if surface != "datapath" {
			continue
		}
		// Ledger operations on a 64-slot machine fed real reports.
		wide := spec
		wide.N, wide.Shards = 64, 64
		var lease, accept time.Duration
		for i := 0; i < reps/8; i++ {
			m, err := campaign.NewMachine(wide, 0)
			if err != nil {
				return err
			}
			now := time.Now()
			t0 := time.Now()
			for m.Available() {
				m.Lease(now, time.Minute)
			}
			lease += time.Since(t0)
			t0 = time.Now()
			for s := 0; s < 64; s++ {
				if _, err := m.Accept(s, slots[0]); err != nil {
					return err
				}
			}
			accept += time.Since(t0)
		}
		ops := float64(reps / 8 * 64)
		pr.l.set("campaign.machine_lease_us", float64(lease.Nanoseconds())/1e3/ops)
		pr.l.set("campaign.machine_accept_us", float64(accept.Nanoseconds())/1e3/ops)
	}
	total := float64(reps * len(shards))
	pr.l.set("campaign.report_encode_us", float64(enc.Nanoseconds())/1e3/total)
	pr.l.set("campaign.report_decode_us", float64(dec.Nanoseconds())/1e3/total)
	return nil
}

// planeReplay fills a journal with a fixed event history — five campaigns
// with all but half a campaign's worth of slots reported — then measures a
// restart on it (controlplane.New replays every event) and a forced
// compaction.
func (pr *prober) planeReplay(cfg config) error {
	spec := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: pr.n(640), Inputs: 1, Seed: pr.seed, Shards: 32, TrackValues: 32}
	if err := spec.Normalize(); err != nil {
		return err
	}
	_, slots, err := shardedBytes(spec, nil)
	if err != nil {
		return err
	}
	env, err := startPlane(planeDir(cfg), 30*time.Second, nil)
	if err != nil {
		return err
	}
	defer env.stop()

	tok := env.tokens[0]
	t0 := time.Now()
	const verifies = 20000
	for i := 0; i < verifies; i++ {
		if _, ok := env.auth.Verify(tok); !ok {
			return fmt.Errorf("auth probe: token refused")
		}
	}
	pr.l.set("controlplane.auth_verify_us", float64(time.Since(t0).Nanoseconds())/1e3/verifies)

	budget := 4*spec.Slots() + spec.Slots()/2
	for i := 0; i < 5; i++ {
		if _, err := env.plane.Submit("t0", spec, 1, 0); err != nil {
			return err
		}
	}
	for budget > 0 {
		resp := env.plane.LeaseBatch(time.Now(), min(budget, 16))
		if len(resp.Leases) == 0 {
			return fmt.Errorf("replay probe: plane ran out of leases with %d to go", budget)
		}
		reqs := make([]campaign.ReportRequest, len(resp.Leases))
		for i, l := range resp.Leases {
			reqs[i] = campaign.ReportRequest{Campaign: l.Campaign, LeaseID: l.ID, Shard: l.Slot, Report: slots[l.Slot]}
		}
		for _, err := range env.plane.ReportBatch(reqs) {
			if err != nil {
				return err
			}
		}
		budget -= len(reqs)
	}
	events := env.plane.JournalStats().Events
	if err := env.plane.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	reopened, err := controlplane.New(controlplane.Config{JournalPath: env.journal, LeaseTTL: 30 * time.Second})
	if err != nil {
		return err
	}
	pr.l.set("controlplane.replay_ms", ms(time.Since(t0)))
	pr.l.set("controlplane.replay_events", float64(events))
	t0 = time.Now()
	err = reopened.Compact()
	pr.l.set("controlplane.compact_ms", ms(time.Since(t0)))
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	return err
}

// idlePickup submits small campaigns one at a time to a worker that has
// gone idle on a plane with a 2 s lease TTL, and times submit → done. An
// idle worker sleeps LeaseTTL/4 ± 50 % between polls, so the figure scales
// with the TTL: it is 15 times larger at the 30 s default.
func (pr *prober) idlePickup(cfg config) error {
	spec := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 16, Inputs: 1, Seed: pr.seed, Shards: 1}
	if err := spec.Normalize(); err != nil {
		return err
	}
	env, err := startPlane(planeDir(cfg), 2*time.Second, nil)
	if err != nil {
		return err
	}
	defer env.stop()
	worker := &campaign.Worker{Base: env.base, Name: "idle-probe", Token: env.fleet, Procs: 2}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- worker.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	c := newTenantClient(env.base, env.tokens[0])
	defer c.close()
	var waits []float64
	for i := 0; i < pr.n(12)+1; i++ {
		// Let the worker's post-delivery poll come back empty first: a
		// submit racing that poll is picked up at once and would hide the
		// idle sleep this probe is about.
		time.Sleep(50 * time.Millisecond)
		rctx, rcancel := context.WithTimeout(ctx, campaignTimeout)
		t0 := time.Now()
		id, err := c.submit(rctx, spec)
		if err == nil {
			_, err = c.follow(rctx, id, func(streamLine, time.Time) {})
		}
		rcancel()
		if err != nil {
			return fmt.Errorf("idle-pickup probe: %v", err)
		}
		// The first submit finds the worker still starting, not idle.
		if i > 0 {
			waits = append(waits, ms(time.Since(t0)))
		}
	}
	pr.l.set("campaign.idle_pickup_ms_p50.ttl2s", median(waits))
	return nil
}
