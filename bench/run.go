package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/network"
)

// config is one benchmark run: one workload, one seed, one duration.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    scale
	// BenchDir is the benchmark's own directory, where golden.json lives;
	// OutDir takes the traces and the planes' journals.
	BenchDir, OutDir string
	// Log receives the human-readable account of the run.
	Log io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 3

// prepared is what set-up leaves for the timed phase.
type prepared struct {
	w *workload
	// refs[i] is the reference final report of cell i, computed by the
	// path the workload does not exercise: the in-process sharded path for
	// the solo workloads, campaign.SoloReport for the fleet workloads.
	refs [][]byte
	// shardJSON[i][slot] is the wire JSON of cell i's shard report
	// (fleet-ingest only).
	shardJSON [][]json.RawMessage
	env       *fleetEnv
}

// prepare is the set-up pass: one warm-up execution of every distinct
// cell (which also yields the reference reports and, for fleet-ingest, the
// shard reports to deliver), tenant keys, and the plane start.
func prepare(cfg config, w *workload, pins goldenPins) (*prepared, error) {
	p := &prepared{w: w, refs: make([][]byte, len(w.Cells))}
	goldens := campaign.NewGoldenCache()
	for i, c := range w.Cells {
		var err error
		switch w.Name {
		case "solo-small", "solo-deep":
			p.refs[i], _, err = shardedBytes(c.Spec, goldens)
		case "fleet-mixed":
			p.refs[i], err = soloBytes(c.Spec)
		case "fleet-ingest":
			var slots []*campaign.Report
			var sharded []byte
			sharded, slots, err = shardedBytes(c.Spec, goldens)
			if err == nil {
				p.refs[i], err = soloBytes(c.Spec)
			}
			if err == nil && !bytes.Equal(sharded, p.refs[i]) {
				err = fmt.Errorf("sharded report differs from campaign.SoloReport, first differing field %s", diffField(p.refs[i], sharded))
			}
			raws := make([]json.RawMessage, len(slots))
			for s := 0; s < len(slots) && err == nil; s++ {
				raws[s], err = json.Marshal(slots[s])
			}
			p.shardJSON = append(p.shardJSON, raws)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up of %s cell %s: %v", w.Name, c.Name, err)
		}
	}
	if pins != nil {
		if err := checkPins(pins, cfg.Scale, w, p.refs); err != nil {
			return nil, err
		}
	}
	if w.isFleet() {
		env, err := startPlane(planeDir(cfg), 30*time.Second, nil)
		if err != nil {
			return nil, err
		}
		p.env = env
	}
	return p, nil
}

var planeSeq int

// planeDir names a fresh journal directory under OutDir.
func planeDir(cfg config) string {
	planeSeq++
	return filepath.Join(cfg.OutDir, fmt.Sprintf("plane-%d-%d", os.Getpid(), planeSeq))
}

func (p *prepared) close() {
	if p.env != nil {
		p.env.stop()
		p.env = nil
	}
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	start     time.Time
	cpu0      time.Duration // process CPU time at start
	wall, cpu time.Duration
	recs      []*campRec
	failures  []string

	// roundWall and roundCPU are the wall and CPU seconds of every whole
	// round: round k ends when PerRound·k campaigns have finished.
	roundWall, roundCPU []float64

	campaigns, failed int
	injections        int // in verified campaigns
	reports           int // shard reports merged into verified campaigns
	latencies         []float64
	goldenMisses      int
	// journalBytesPerEvent is sampled during traced fleet phases.
	journalBytesPerEvent float64
	mem                  runtime.MemStats // TotalAlloc, PauseTotalNs, NumGC over the phase
}

// add folds another phase's counts and samples into r.
func (r *phaseResult) add(o *phaseResult) {
	r.wall += o.wall
	r.cpu += o.cpu
	r.campaigns += o.campaigns
	r.failed += o.failed
	r.injections += o.injections
	r.reports += o.reports
	r.latencies = append(r.latencies, o.latencies...)
	r.failures = append(r.failures, o.failures...)
	r.roundWall = append(r.roundWall, o.roundWall...)
	r.roundCPU = append(r.roundCPU, o.roundCPU...)
}

// tally derives the counts and latency samples from the campaign records.
func (r *phaseResult) tally(p *prepared) {
	for _, rec := range r.recs {
		r.campaigns++
		if rec.err != "" {
			r.failed++
			if len(r.failures) < 8 {
				r.failures = append(r.failures, fmt.Sprintf("%s %s: %s", p.w.Cells[rec.cell].Name, rec.id, rec.err))
			}
			continue
		}
		spec := p.w.Cells[rec.cell].Spec
		r.injections += spec.N
		r.reports += spec.Slots()
		r.latencies = append(r.latencies, ms(rec.latency()))
	}
	byDone := append([]*campRec(nil), r.recs...)
	sort.Slice(byDone, func(i, j int) bool { return byDone[i].done.Before(byDone[j].done) })
	lastT, lastCPU := r.start, r.cpu0
	for k := p.w.PerRound; k <= len(byDone); k += p.w.PerRound {
		end := byDone[k-1]
		r.roundWall = append(r.roundWall, end.done.Sub(lastT).Seconds())
		r.roundCPU = append(r.roundCPU, (end.cpuAtDone - lastCPU).Seconds())
		lastT, lastCPU = end.done, end.cpuAtDone
	}
	if len(r.failures) > 0 && r.failed == 0 {
		// A fleet-level failure (worker or ingest loop) with every campaign
		// nonetheless verified still fails the run.
		r.failed = 1
	}
}

// runSolo is the timed phase of the solo workloads: the cycle of cells,
// one campaign after another through campaign.SoloReport with a cold
// golden each, as the CLI pays it.
func runSolo(p *prepared, tr *tracer, seconds float64) *phaseResult {
	res := &phaseResult{start: time.Now(), cpu0: cpuTime()}
	for round := 0; keepGoing(res.start, round, seconds); round++ {
		for i, c := range p.w.Cells {
			rec := &campRec{cell: i, id: fmt.Sprintf("r%d.%d", round, i), submitStart: time.Now()}
			got, err := soloCampaign(tr, rec.id, c.Spec)
			if err == nil && !bytes.Equal(got, p.refs[i]) {
				err = fmt.Errorf("report differs from the sharded reference, first differing field %s", diffField(p.refs[i], got))
			}
			rec.finish(err)
			res.recs = append(res.recs, rec)
		}
	}
	res.wall = time.Since(res.start)
	res.cpu = cpuTime() - res.cpu0
	res.tally(p)
	return res
}

// keepGoing decides at a round boundary whether another whole round
// starts: yes while the boundary after it would land closer to the
// requested duration than this one does, so runs end within half a round
// of it on either side.
func keepGoing(start time.Time, roundsDone int, seconds float64) bool {
	if roundsDone == 0 {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(roundsDone)/2 < seconds
}

// soloCampaign runs one campaign the way `faultserve -role solo -out`
// does and returns the bytes it would write. Traced, campaign.SoloReport
// is replayed as its public steps with a span each — Spec.NewCampaign,
// Campaign.Run (the golden forwards inside it are timed through the
// public GoldenFn hook) and MarshalIndent.
func soloCampaign(tr *tracer, id string, spec campaign.Spec) ([]byte, error) {
	if tr == nil || spec.Surface != "datapath" || spec.PriorAllocated() {
		return soloBytes(spec)
	}
	root := tr.start("campaign", id, 0, time.Now(), map[string]string{"net": spec.Net, "dtype": spec.DType})
	defer func() { tr.finish(root, time.Now()) }()

	s := tr.start("new_campaign", id, root, time.Now(), nil)
	c, err := spec.NewCampaign(nil)
	tr.finish(s, time.Now())
	if err != nil {
		return nil, err
	}
	run := tr.start("run", id, root, time.Now(), nil)
	c.GoldenFn = func(i int, compute func() *network.Execution) *network.Execution {
		g := tr.start("golden", id, run, time.Now(), map[string]string{"input": fmt.Sprint(i)})
		ex := compute()
		tr.finish(g, time.Now())
		return ex
	}
	rep := c.Run(spec.Options())
	tr.finish(run, time.Now())

	s = tr.start("marshal", id, root, time.Now(), nil)
	out, err := surfaceJSON(&campaign.Report{Datapath: rep})
	tr.finish(s, time.Now())
	return out, err
}

// timedPhase runs the workload's timed phase once. tr is nil for the
// untraced measurement.
func timedPhase(p *prepared, tr *tracer, seconds float64) *phaseResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sampler *journalSampler
	if p.env != nil && p.env.rec != nil {
		sampler = startJournalSampler(p.env.plane)
	}
	var res *phaseResult
	switch p.w.Name {
	case "fleet-mixed":
		res = runMixed(p, seconds)
	case "fleet-ingest":
		res = runIngest(p, seconds)
	default:
		res = runSolo(p, tr, seconds)
	}
	if sampler != nil {
		res.journalBytesPerEvent = sampler.bytesPerEvent()
	}
	runtime.ReadMemStats(&after)
	res.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	res.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	res.mem.NumGC = after.NumGC - before.NumGC
	return res
}

// endToEnd derives the end-to-end metrics of one untraced phase. Every
// round is the same mix of campaigns, so the rates are taken over the
// median round: a burst of interference on the host slows a few rounds and
// leaves the median where it was.
func endToEnd(w *workload, res *phaseResult, setup []float64) map[string]metric {
	wall, cpu := median(res.roundWall), median(res.roundCPU)
	kinj := float64(w.injectionsPerRound()) / 1000
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"inj_per_s":       {1000 * kinj / wall, "1/s"},
		"reports_per_s":   {float64(w.slotsPerRound()) / wall, "1/s"},
		"cpu_ms_per_kinj": {1000 * cpu / kinj, "ms"},
		"campaign_ms_p50": {percentile(res.latencies, 50), "ms"},
	}
}

// run executes one benchmark run and returns its result.
func run(cfg config) (*result, error) {
	w, err := buildWorkload(cfg.Workload, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	var pins goldenPins
	if cfg.Seed == defaultSeed {
		if pins, err = loadPins(cfg.BenchDir); err != nil {
			return nil, err
		}
	} else {
		fmt.Fprintf(cfg.Log, "seed %d is not the default seed %d: golden.json pins were not consulted; every campaign is still checked byte for byte against the other execution path\n", cfg.Seed, defaultSeed)
	}

	var p *prepared
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.close()
		}
		t0 := time.Now()
		if p, err = prepare(cfg, w, pins); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer func() { p.close() }()

	out := &result{}
	if !cfg.Trace {
		res := timedPhase(p, nil, cfg.Seconds)
		out.Metrics = endToEnd(w, res, setup)
		report(cfg, w, res, out)
		return out, nil
	}

	// Traced run: a quarter of the time untraced, half traced, a quarter
	// untraced again, in one process on one set-up — the traced half sits
	// between the two plain ones so that drift over the run (heap growth,
	// the machine warming) cancels out of the tracing overhead.
	tr := newTracer()
	phase := func(traced bool, seconds float64) (*phaseResult, error) {
		var t *tracer
		if traced {
			t = tr
		}
		if w.isFleet() {
			// Every phase gets a fresh plane, the traced one behind the
			// recording middleware.
			p.env.stop()
			var rec *httpRecorder
			if traced {
				rec = &httpRecorder{decode: w.Name == "fleet-mixed", keep: 40}
			}
			if p.env, err = startPlane(planeDir(cfg), 30*time.Second, rec); err != nil {
				return nil, err
			}
		}
		return timedPhase(p, t, seconds), nil
	}
	plain, err := phase(false, cfg.Seconds/4)
	if err != nil {
		return nil, err
	}
	traced, err := phase(true, cfg.Seconds/2)
	if err != nil {
		return nil, err
	}
	layer := newLayerMetrics()
	if w.isFleet() {
		fleetLayers(layer, p, tr, traced, cfg)
	}
	after, err := phase(false, cfg.Seconds/4)
	if err != nil {
		return nil, err
	}
	plain.add(after)
	// The probes time small calls; they should not pay for marking what
	// the workload's plane still holds.
	p.close()
	runtime.GC()

	spans := tr.seal()
	tracePath := filepath.Join(cfg.OutDir, "trace-"+w.Name+".ndjson")
	if err := writeSpans(tracePath, spans); err != nil {
		return nil, err
	}
	hostLayers(layer, plain, traced)
	if err := probes(layer, cfg); err != nil {
		return nil, err
	}
	printSelfTimes(cfg.Log, w, spans, plain)
	fmt.Fprintf(cfg.Log, "trace: %d spans in %s\n", len(spans), tracePath)
	out.Metrics = layer.m
	traced.add(plain)
	report(cfg, w, traced, out)
	return out, nil
}

// report fills the verdict fields and prints the human-readable account.
func report(cfg config, w *workload, res *phaseResult, out *result) {
	out.Attempted = res.campaigns
	out.Failed = res.failed
	out.Correct = res.failed == 0 && res.campaigns > 0
	for _, f := range res.failures {
		fmt.Fprintf(cfg.Log, "FAILED %s\n", f)
	}
	fmt.Fprintf(cfg.Log, "%s: %d campaigns attempted, %d failed, %d injections verified, %d latency samples, timed wall %.2f s\n",
		w.Name, res.campaigns, res.failed, res.injections, len(res.latencies), res.wall.Seconds())
	if len(res.roundWall) > 0 {
		fmt.Fprintf(cfg.Log, "  %d whole rounds of %d campaigns: round wall min %.3f s, median %.3f s, max %.3f s\n", len(res.roundWall), w.PerRound,
			percentile(res.roundWall, 0.001), median(res.roundWall), percentile(res.roundWall, 100))
	}
	for _, name := range sortedKeys(out.Metrics) {
		m := out.Metrics[name]
		fmt.Fprintf(cfg.Log, "  %-52s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
