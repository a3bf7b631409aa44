package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
)

// journalSampler polls JournalStats while a traced fleet phase runs, so
// bytes per event can be read between compactions (the stats only carry
// the journal's current size, which a compaction resets).
type journalSampler struct {
	stop          chan struct{}
	done          chan struct{}
	bytes, events int64
}

func startJournalSampler(p *controlplane.Plane) *journalSampler {
	s := &journalSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		last := p.JournalStats()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			cur := p.JournalStats()
			if cur.Compactions == last.Compactions && cur.Bytes > last.Bytes {
				s.bytes += cur.Bytes - last.Bytes
				s.events += cur.Events - last.Events
			}
			last = cur
		}
	}()
	return s
}

// bytesPerEvent stops the sampler and returns journal bytes per event.
func (s *journalSampler) bytesPerEvent() float64 {
	close(s.stop)
	<-s.done
	if s.events == 0 {
		return 0
	}
	return float64(s.bytes) / float64(s.events)
}

type slotKey struct {
	campaign string
	slot     int
}

// fleetLayers derives the campaign and controlplane metrics of a traced
// fleet phase from the HTTP middleware's records and the tenant clients'
// own, and builds the campaign span trees.
func fleetLayers(l *layerMetrics, p *prepared, tr *tracer, res *phaseResult, cfg config) {
	rec := p.env.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()

	// HTTP, per route.
	byRoute := make(map[string][]float64)
	var in, out int64
	var leaseCarried, reportCarried []float64
	empty := 0
	for _, r := range rec.reqs {
		byRoute[r.route] = append(byRoute[r.route], ms(r.end.Sub(r.start)))
		in += r.in
		out += r.out
		switch {
		case r.route == "lease" && r.carried == 0:
			empty++
		case r.route == "lease":
			leaseCarried = append(leaseCarried, float64(r.carried))
		case r.route == "reports":
			reportCarried = append(reportCarried, float64(r.carried))
		}
	}
	for _, route := range []string{"submit", "lease", "reports", "heartbeat", "report_get"} {
		l.set("controlplane.http."+route+"_ms_p50", median(byRoute[route]))
	}
	l.set("controlplane.http.lease_ms_p99", percentile(byRoute["lease"], 99))
	l.set("controlplane.http.reports_ms_p99", percentile(byRoute["reports"], 99))
	l.set("controlplane.http.requests", float64(len(rec.reqs)))
	l.set("controlplane.http.bytes_in_mb", float64(in)/1e6)
	l.set("controlplane.http.bytes_out_mb", float64(out)/1e6)
	l.set("controlplane.lease_batch_mean", mean(leaseCarried))
	l.set("controlplane.reports_batch_mean", mean(reportCarried))
	l.set("controlplane.empty_polls", float64(empty))

	js := p.env.plane.JournalStats()
	if js.Fsyncs > 0 {
		l.set("controlplane.journal.events_per_fsync", float64(js.Events)/float64(js.Fsyncs))
		l.set("controlplane.journal.fsync_ms_mean", float64(js.FsyncNanos)/float64(js.Fsyncs)/1e6)
	}
	l.set("controlplane.journal.fsyncs", float64(js.Fsyncs))
	l.set("controlplane.journal.compactions", float64(js.Compactions))
	l.set("controlplane.journal.retired_events", float64(js.RetiredEvents))
	l.set("controlplane.journal.bytes_per_event", res.journalBytesPerEvent)

	// Slot lifecycle: grant → report received → acknowledged.
	grants := make(map[slotKey]grant, len(rec.grants))
	for _, g := range rec.grants {
		if _, dup := grants[slotKey{g.campaign, g.slot}]; !dup {
			grants[slotKey{g.campaign, g.slot}] = g
		}
	}
	acksOf := make(map[string][]ack)
	var held []float64
	heldTotal := time.Duration(0)
	for _, a := range rec.acks {
		acksOf[a.campaign] = append(acksOf[a.campaign], a)
		if g, ok := grants[slotKey{a.campaign, a.slot}]; ok {
			held = append(held, ms(a.acked.Sub(g.at)))
			heldTotal += a.acked.Sub(g.at)
		}
	}
	grantsOf := make(map[string][]grant)
	for _, g := range grants {
		grantsOf[g.campaign] = append(grantsOf[g.campaign], g)
	}
	l.set("campaign.slot_held_ms_p50", percentile(held, 50))
	l.set("campaign.slot_held_ms_p90", percentile(held, 90))
	l.set("campaign.leases_in_flight_mean", heldTotal.Seconds()/res.wall.Seconds())
	l.set("campaign.golden_misses", float64(res.goldenMisses))

	var queueWait, barrier, finalReport, streamLag, firstCI []float64
	for _, c := range res.recs {
		if c.id == "" {
			continue
		}
		gs, as := grantsOf[c.id], acksOf[c.id]
		sort.Slice(gs, func(i, j int) bool { return gs[i].at.Before(gs[j].at) })
		sort.Slice(as, func(i, j int) bool { return as[i].arrived.Before(as[j].arrived) })
		root := tr.add("campaign", c.id, 0, c.submitStart, c.done, map[string]string{"cell": p.w.Cells[c.cell].Name})
		tr.add("submit", c.id, root, c.submitStart, c.submitEnd, nil)
		if len(gs) == 0 || len(as) == 0 || c.err != "" {
			continue
		}
		// Blocking path: contiguous, so the rows sum to the campaign.
		firstGrant := latest(gs[0].at, c.submitEnd)
		lastAck := as[0].acked
		for _, a := range as {
			lastAck = latest(lastAck, a.acked)
		}
		execEnd := earliest(latest(lastAck, firstGrant), c.streamEnd)
		tr.add("queue_wait", c.id, root, c.submitEnd, firstGrant, nil)
		exec := tr.add("execute", c.id, root, firstGrant, execEnd, nil)
		tr.add("stream_done", c.id, root, execEnd, c.streamEnd, nil)
		tr.add("final_report", c.id, root, c.streamEnd, c.done, nil)
		queueWait = append(queueWait, ms(firstGrant.Sub(c.submitEnd)))
		finalReport = append(finalReport, ms(c.done.Sub(c.streamEnd)))

		var lastPilotAck, firstMainGrant time.Time
		for _, a := range as {
			g, ok := grants[slotKey{a.campaign, a.slot}]
			if !ok {
				continue
			}
			tr.add("slot", c.id, exec, g.at, a.acked, map[string]string{"slot": fmt.Sprint(a.slot), "phase": g.phase})
			switch g.phase {
			case "pilot":
				lastPilotAck = latest(lastPilotAck, a.acked)
			case "main":
				if firstMainGrant.IsZero() || g.at.Before(firstMainGrant) {
					firstMainGrant = g.at
				}
			}
		}
		if !lastPilotAck.IsZero() && !firstMainGrant.IsZero() {
			tr.add("pilot_barrier", c.id, exec, lastPilotAck, firstMainGrant, nil)
			barrier = append(barrier, ms(firstMainGrant.Sub(lastPilotAck)))
		}
		if !c.firstCI.IsZero() {
			tr.add("stream_first", c.id, exec, as[0].arrived, c.firstCI, nil)
			firstCI = append(firstCI, ms(c.firstCI.Sub(c.submitStart)))
		}
		// The k-th report the plane received produced the status line
		// that first showed k completed shards.
		for k := 0; k < len(as) && k < len(c.seen); k++ {
			streamLag = append(streamLag, ms(c.seen[k].Sub(as[k].arrived)))
		}
	}
	l.set("campaign.queue_wait_ms_p50", median(queueWait))
	l.set("campaign.pilot_barrier_ms_p50", median(barrier))
	l.set("campaign.first_ci_ms_p50", median(firstCI))
	l.set("controlplane.final_report_ms_p50", median(finalReport))
	l.set("controlplane.stream_lag_ms_p50", median(streamLag))

	// Captured leases, re-executed single-threaded: the pure execute cost,
	// and by difference what a slot spent waiting inside the worker.
	goldens := campaign.NewGoldenCache()
	acked := make(map[slotKey]ack, len(rec.acks))
	for _, a := range rec.acks {
		acked[slotKey{a.campaign, a.slot}] = a
	}
	var workerWait []float64
	for _, surface := range campaign.Surfaces {
		var exec []float64
		for _, lease := range rec.leases[surface] {
			t0 := time.Now()
			if _, err := campaign.ExecuteLease(lease, goldens); err != nil {
				fmt.Fprintf(cfg.Log, "re-executing %s/%s: %v\n", lease.Campaign, lease.ID, err)
				continue
			}
			d := ms(time.Since(t0))
			exec = append(exec, d)
			k := slotKey{lease.Campaign, lease.Slot}
			if a, ok := acked[k]; ok {
				workerWait = append(workerWait, ms(a.acked.Sub(grants[k].at))-d)
			}
		}
		l.set("campaign.execute_lease_ms_p50."+surface, median(exec))
	}
	l.set("campaign.worker_wait_ms_p50", median(workerWait))
}

func latest(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

func earliest(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// hostLayers fills the metrics every workload has — the campaign tail
// latency, the host figures and the tracing overhead — from the untraced
// and the traced part of a traced run.
func hostLayers(l *layerMetrics, plain, traced *phaseResult) {
	l.set("campaign.latency_ms_p90", percentile(traced.latencies, 90))
	l.set("host.peak_rss_mb", peakRSSMB())
	l.set("host.cpu_util", traced.cpu.Seconds()/(traced.wall.Seconds()*float64(runtime.NumCPU())))
	if traced.injections > 0 {
		l.set("host.alloc_mb_per_kinj", float64(traced.mem.TotalAlloc)/1e6/(float64(traced.injections)/1000))
	}
	l.set("host.gc_pause_ms", float64(traced.mem.PauseTotalNs)/1e6)
	l.set("host.gc_cycles", float64(traced.mem.NumGC))
	// Every phase runs whole rounds of the same mix, so the median round
	// compares them on every workload.
	if t := median(traced.roundWall); t > 0 {
		l.set("trace.overhead_frac", t/median(plain.roundWall)-1)
	}
}

// printSelfTimes prints the blocking path of the traced campaigns — the
// root's direct children and the root's own self time, which sum to the
// campaign — then every span name's self time (a span minus the union of
// its children; concurrent slots make these exceed the wall).
func printSelfTimes(w io.Writer, wl *workload, spans []span, plain *phaseResult) {
	self, rootMS, roots := selfTimes(spans, "campaign")
	if roots == 0 {
		return
	}
	children := make(map[string]float64)
	rootIDs := make(map[int]bool)
	for i := range spans {
		if spans[i].Name == "campaign" && spans[i].Parent == 0 {
			rootIDs[spans[i].ID] = true
		}
	}
	for i := range spans {
		if rootIDs[spans[i].Parent] {
			children[spans[i].Name] += float64(spans[i].EndNS-spans[i].StartNS) / 1e6 / float64(roots)
		}
	}
	fmt.Fprintf(w, "%s traced campaigns: %d, mean %.3f ms (untraced half: mean %.3f ms, p50 %.3f ms)\n",
		wl.Name, roots, rootMS, mean(plain.latencies), median(plain.latencies))
	fmt.Fprintf(w, "  blocking path (mean ms per campaign)\n")
	sum := self["campaign"]
	for _, name := range sortedKeys(children) {
		fmt.Fprintf(w, "    %-16s %10.3f\n", name, children[name])
		sum += children[name]
	}
	fmt.Fprintf(w, "    %-16s %10.3f\n    %-16s %10.3f\n", "(campaign self)", self["campaign"], "sum", sum)
	fmt.Fprintf(w, "  self time by span (mean ms per campaign)\n")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(w, "    %-16s %10.3f\n", name, self[name])
	}
}
