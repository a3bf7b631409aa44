// Command faultserve runs distributed fault-injection campaigns: a
// control plane shards each campaign's injection space and serves leases
// over HTTP; workers lease shards, execute them and report back. The
// merged result is bit-identical to running the same spec in one process
// (the solo role), and every accepted shard report is fsynced to the
// plane's journal before it is acknowledged, so a killed campaign resumes
// without re-running finished work.
//
// There is one server and one journal format. The coordinator role is a
// one-campaign front on it: an unauthenticated (loopback dev mode) plane
// whose journal is the -checkpoint file, which submits the campaign the
// flags describe — or resumes it, when the file already holds exactly that
// campaign — waits for it to finish, writes -out / -strata-out and exits.
// A file holding a different spec, more than one campaign, or an older
// checkpoint format is refused.
//
// Usage:
//
//	faultserve -role coordinator -net AlexNet -dtype FLOAT16 -n 3000 \
//	    -shards 16 -addr 127.0.0.1:8711 -checkpoint run.ckpt -out report.json
//	faultserve -role worker -join http://127.0.0.1:8711 -procs 4
//	faultserve -role solo -net AlexNet -dtype FLOAT16 -n 3000 -out report.json
//
// The multi-tenant control plane queues many campaigns onto one shared
// worker fleet (fair-share scheduled, journaled for resume, optionally
// token-authenticated). Roles are separated: workers authenticate with
// the reserved "fleet" principal's token (a tenant token cannot pull
// leases or post reports, and the fleet token cannot touch campaigns), so
// an authenticated key file needs a "fleet:secret" line for its workers:
//
//	faultserve -role ctl -addr 127.0.0.1:8711 -journal ctl.journal \
//	    -tenant-keys keys.txt
//	faultserve -role worker -join http://127.0.0.1:8711 -token-file fleet.tok
//	faultserve -role submit -join http://127.0.0.1:8711 -token-file tok \
//	    -net AlexNet -n 3000 -priority 4
//	faultserve -role watch -join http://127.0.0.1:8711 -campaign c1 -out report.json
//	faultserve -role cancel -join http://127.0.0.1:8711 -campaign c1
//	faultserve -role list -join http://127.0.0.1:8711
//	faultserve -role token -tenant-keys keys.txt -tenant alice
//
// Either server streams a campaign's live aggregates at
// GET /v1/campaigns/{id}/stream (NDJSON, one status per completed shard;
// the coordinator role's campaign is c1 on a fresh checkpoint and the ID
// is in its log line) and exports expvar counters at /debug/vars; -pprof
// additionally mounts /debug/pprof/. A plane never tells its fleet "done":
// workers run until SIGTERM/SIGINT (a graceful drain — in-flight shards
// finish and post their reports), -max-leases, or the server staying
// unreachable for 30s.
package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
	"repro/internal/engine"
	"repro/internal/sdc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultserve: ")

	role := flag.String("role", "solo", "coordinator, worker, solo, ctl, or a ctl client verb: submit, watch, cancel, list, token")

	// Campaign spec (coordinator and solo; workers receive it in leases).
	netName := flag.String("net", "AlexNet", "network: ConvNet, AlexNet, CaffeNet or NiN")
	dtypeName := flag.String("dtype", "FLOAT16", "data type: DOUBLE, FLOAT, FLOAT16, 32b_rb26, 32b_rb10 or 16b_rb10")
	n := flag.Int("n", 3000, "number of fault injections")
	inputs := flag.Int("inputs", 4, "number of distinct input images")
	seed := flag.Int64("seed", 1, "campaign seed")
	shards := flag.Int("shards", 0, "shard count (0 = 8, clamped to n)")
	selMode := flag.String("select", "uniform", "site selector: uniform, perbit or perlayer")
	selParam := flag.Int("param", 0, "fixed bit (perbit) or block (perlayer)")
	trackValues := flag.Int("track-values", 0, "sample up to this many golden/faulty activation pairs")
	trackSpread := flag.Bool("track-spread", false, "accumulate the Table 5 final-block mismatch metric")
	weightsDir := flag.String("weights", "", "directory of pre-trained weights (cmd/pretrain output)")
	sampling := flag.String("sampling", "uniform", "site sampling design: uniform or stratified (two-phase pilot + Neyman allocation)")
	pilotN := flag.Int("pilot", 0, "stratified pilot budget (0 = n/5)")
	surface := flag.String("surface", "datapath", "fault surface: datapath (latch campaigns), buffer (Eyeriss buffer hierarchy) or systolic (dataflow-parameterized array)")
	buffer := flag.String("buffer", "", "buffer class of a buffer-surface campaign: global, filter, img or psum (default global)")
	dataflow := flag.String("dataflow", "", "systolic-surface dataflow: weight (default), output or input")
	mbu := flag.Int("mbu", 0, "multi-bit-upset width on any surface: flip this many adjacent bits per injection (0/1 = single-bit)")
	prior := flag.String("prior", "", "strata artifact from a previous stratified campaign; seeds the Neyman allocation and skips the pilot")
	strataOut := flag.String("strata-out", "", "write this campaign's strata artifact (stratified campaigns; seeds later -prior runs)")

	// Coordinator.
	addr := flag.String("addr", "127.0.0.1:0", "coordinator listen address")
	addrFile := flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
	checkpoint := flag.String("checkpoint", "", "coordinator journal (same format as -journal); resumes when it already holds exactly this campaign, refuses any other content")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "shard lease TTL; missed heartbeats past this re-lease the shard")
	maxRetries := flag.Int("max-retries", 3, "re-lease attempts per shard before the campaign fails")
	linger := flag.Duration("linger", 0, "keep serving this long after completion (lets stream readers drain)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof on the coordinator")
	out := flag.String("out", "", "write the final merged report as JSON to this file")

	// Worker.
	join := flag.String("join", "", "coordinator or control-plane base URL, e.g. http://127.0.0.1:8711")
	procs := flag.Int("procs", 1, "concurrent shard executors in this worker")
	maxLeases := flag.Int("max-leases", 0, "exit after completing this many shards (0 = until drain, SIGTERM or the plane unreachable for 30 s)")
	crashAfter := flag.Int("crash-after", 0, "complete this many shards, take one more lease, then exit hard (tests re-lease + resume)")

	// Control plane (ctl) and its clients.
	journal := flag.String("journal", "", "control-plane journal (format v5, the only one read); resumes every unfinished campaign on restart")
	tenantKeys := flag.String("tenant-keys", "", "tenant key file (tenant:secret per line); enables bearer-token authn")
	defaultQuota := flag.Int("default-quota", 0, "in-flight lease cap for campaigns submitted without one (0 = unlimited)")
	maxQueued := flag.Int("max-queued", 0, "per-tenant cap on queued+running campaigns; submits past it get HTTP 429 (0 = unlimited)")
	compactBytes := flag.Int64("compact-bytes", 4<<20, "journal size that triggers snapshot compaction (0 = only on restart)")
	token := flag.String("token", "", "bearer token for authenticated control planes")
	tokenFile := flag.String("token-file", "", "file holding the bearer token")
	campaignID := flag.String("campaign", "", "campaign ID for watch/cancel")
	tenant := flag.String("tenant", "", "tenant name for the token verb")
	priority := flag.Int("priority", 1, "submit: fair-share weight (1-16); a campaign gets leases in proportion to its priority")
	quota := flag.Int("quota", 0, "submit: max in-flight leases for this campaign (0 = plane default)")
	flag.Parse()

	spec := campaign.Spec{
		Net: *netName, DType: *dtypeName, N: *n, Inputs: *inputs, Seed: *seed,
		Shards: *shards, Select: *selMode, Param: *selParam,
		TrackValues: *trackValues, TrackSpread: *trackSpread, WeightsDir: *weightsDir,
		Sampling: *sampling, PilotN: *pilotN,
		Surface: *surface, Buffer: *buffer, Dataflow: *dataflow, MBU: *mbu, PriorPath: *prior,
	}

	bearer := resolveToken(*token, *tokenFile)

	switch *role {
	case "coordinator":
		runCoordinator(spec, *addr, *addrFile, controlplane.Config{
			JournalPath: *checkpoint, LeaseTTL: *leaseTTL, MaxRetries: *maxRetries,
			CompactBytes: *compactBytes, Pprof: *pprofOn,
		}, *linger, *out, *strataOut)
	case "worker":
		runWorker(*join, *procs, *maxLeases, *crashAfter, bearer)
	case "ctl":
		runControlPlane(*addr, *addrFile, *journal, *tenantKeys, *leaseTTL, *maxRetries, *defaultQuota, *maxQueued, *compactBytes, *pprofOn)
	case "submit":
		runSubmit(*join, bearer, spec, *priority, *quota)
	case "watch":
		runWatch(*join, bearer, *campaignID, *out)
	case "cancel":
		runCancel(*join, bearer, *campaignID)
	case "list":
		runList(*join, bearer)
	case "token":
		runToken(*tenantKeys, *tenant)
	case "solo":
		report, pilot, err := campaign.SoloReport(spec, nil)
		if err != nil {
			log.Fatal(err)
		}
		writeStrata(*strataOut, spec, pilot, report)
		emit(report, *out)
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", *role)
		flag.Usage()
		os.Exit(2)
	}
}

// runCoordinator serves exactly one campaign on a dev-mode control plane
// whose journal is the -checkpoint file, then emits what the solo role
// emits.
func runCoordinator(spec campaign.Spec, addr, addrFile string, cfg controlplane.Config,
	linger time.Duration, out, strataOut string) {
	p, id, err := openCampaign(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	srv, bound := serve(addr, addrFile, p.Handler())
	st, err := p.Get("", id)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving campaign %s (%s/%s n=%d, %d ledger slots) on %s (resumed %d slots from the journal)",
		id, spec.Net, spec.DType, spec.N, st.Snapshot.TotalShards, bound, st.Snapshot.ResumedShards)

	for st.State == controlplane.StateActive {
		time.Sleep(250 * time.Millisecond)
		if st, err = p.Get("", id); err != nil {
			log.Fatal(err)
		}
	}
	if st.State != controlplane.StateDone {
		log.Fatalf("campaign %s %s: %s", id, st.State, cmp.Or(st.Snapshot.Failed, "no report to emit"))
	}
	sp, report, pilot, err := p.Result("", id)
	if err != nil {
		log.Fatal(err)
	}
	if linger > 0 {
		time.Sleep(linger)
	}
	srv.Shutdown(context.Background())
	p.Close()
	writeStrata(strataOut, sp, pilot, report)
	emit(report, out)
}

// openCampaign opens the plane behind the coordinator role and returns the
// ID of the one campaign it serves: submitted fresh when the journal holds
// nothing, adopted when it holds exactly the campaign spec describes (still
// running, or finished and about to be re-emitted). Everything else — a
// different spec, several campaigns, a file the journal reader refuses —
// is an error naming the file; a checkpoint never silently feeds a
// different campaign.
func openCampaign(cfg controlplane.Config, spec campaign.Spec) (*controlplane.Plane, string, error) {
	if err := spec.Normalize(); err != nil {
		return nil, "", err
	}
	p, err := controlplane.New(cfg)
	if err != nil {
		return nil, "", err
	}
	var id string
	switch held := p.List(""); len(held) {
	case 0:
		var st controlplane.Status
		st, err = p.Submit("", spec, controlplane.MinPriority, 0)
		id = st.ID
	case 1:
		id = held[0].ID
		// A 409 from Result only says the campaign has no final report yet;
		// the spec comes back either way.
		if have, _, _, _ := p.Result("", id); have != spec {
			err = fmt.Errorf("checkpoint %s was written for a different campaign spec", cfg.JournalPath)
		}
	default:
		err = fmt.Errorf("checkpoint %s holds %d campaigns; -role coordinator serves exactly one (use -role ctl -journal for a shared journal)",
			cfg.JournalPath, len(held))
	}
	if err != nil {
		p.Close()
		return nil, "", err
	}
	return p, id, nil
}

// serve binds addr (recording the bound address in addrFile, for scripts
// using port 0) and serves h on it in the background.
func serve(addr, addrFile string, h http.Handler) (*http.Server, net.Addr) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	return srv, ln.Addr()
}

func runWorker(join string, procs, maxLeases, crashAfter int, token string) {
	if join == "" {
		log.Fatal("worker needs -join URL")
	}
	join = strings.TrimRight(join, "/")
	w := &campaign.Worker{
		Base:      join,
		Name:      fmt.Sprintf("pid%d", os.Getpid()),
		Procs:     procs,
		MaxLeases: maxLeases,
		Token:     token,
		Goldens:   campaign.NewGoldenCache(),
	}
	if crashAfter > 0 {
		w.MaxLeases = crashAfter
	}
	// Graceful drain: first SIGTERM/SIGINT stops taking new leases while
	// in-flight shards finish and post their reports; a second signal
	// kills the process the ordinary way.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigc
		log.Printf("draining: finishing in-flight shards, taking no new leases")
		w.Drain()
		signal.Stop(sigc)
	}()
	if err := w.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	// One miss per (network, weights, format, input) coordinate the worker
	// touched, whatever the surface: the smoke script asserts on this line.
	hits, misses := w.Goldens.Stats()
	log.Printf("golden cache: %d misses, %d hits", misses, hits)
	if w.Draining() {
		log.Printf("drained")
	}
	if crashAfter > 0 {
		// Simulate a worker dying mid-shard: grab one more lease, never
		// heartbeat or report, and exit the way SIGKILL would. The
		// plane must expire the lease and hand the shard out again.
		if err := crashLease(join, token); err != nil {
			log.Print(err)
		}
		os.Exit(137)
	}
}

// crashLease takes one lease from the plane at join and drops it, sending
// the worker's bearer token like every other fleet request. With no slot
// left to lease, the plane holds the request up to its hold bound
// (min(lease TTL/4, 1 s)) and then answers with none.
func crashLease(join, token string) error {
	req, err := http.NewRequest(http.MethodPost, join+"/v1/lease", strings.NewReader("{}"))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("crash lease: %s", resp.Status)
	}
	return nil
}

// runControlPlane serves the multi-tenant control plane until SIGTERM.
func runControlPlane(addr, addrFile, journal, tenantKeys string,
	leaseTTL time.Duration, maxRetries, defaultQuota, maxQueued int,
	compactBytes int64, pprofOn bool) {
	cfg := controlplane.Config{
		JournalPath:        journal,
		LeaseTTL:           leaseTTL,
		MaxRetries:         maxRetries,
		DefaultQuota:       defaultQuota,
		MaxQueuedPerTenant: maxQueued,
		CompactBytes:       compactBytes,
		Pprof:              pprofOn,
	}
	if tenantKeys != "" {
		auth, err := controlplane.LoadKeyFile(tenantKeys)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Auth = auth
		log.Printf("authenticating tenants %s", strings.Join(auth.Tenants(), ", "))
		if !auth.Has(controlplane.FleetTenant) {
			log.Printf("warning: key file has no %q entry — workers cannot authenticate; add a '%s:secret' line and mint its token with -role token -tenant %s",
				controlplane.FleetTenant, controlplane.FleetTenant, controlplane.FleetTenant)
		}
	}
	p, err := controlplane.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv, bound := serve(addr, addrFile, p.Handler())
	log.Printf("control plane on %s (%d campaigns active after journal replay)", bound, p.Active())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	<-sigc
	log.Printf("shutting down")
	srv.Shutdown(context.Background())
	p.Close()
}

// resolveToken picks the bearer token: -token wins, else -token-file.
func resolveToken(token, tokenFile string) string {
	if token != "" {
		return token
	}
	if tokenFile == "" {
		return ""
	}
	data, err := os.ReadFile(tokenFile)
	if err != nil {
		log.Fatal(err)
	}
	return strings.TrimSpace(string(data))
}

// ctlRequest performs one authenticated control-plane request and fails
// hard on any non-2xx status.
func ctlRequest(method, url, token string, body io.Reader) *http.Response {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		log.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		log.Fatalf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp
}

func ctlBase(join string) string {
	if join == "" {
		log.Fatal("this verb needs -join URL")
	}
	return strings.TrimRight(join, "/")
}

// runSubmit queues one campaign and prints its assigned ID on stdout.
func runSubmit(join, token string, spec campaign.Spec, priority, quota int) {
	body, err := json.Marshal(controlplane.SubmitRequest{Spec: spec, Priority: priority, Quota: quota})
	if err != nil {
		log.Fatal(err)
	}
	resp := ctlRequest("POST", ctlBase(join)+"/v1/campaigns", token, strings.NewReader(string(body)))
	defer resp.Body.Close()
	var st controlplane.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	log.Printf("submitted %s (%s/%s n=%d priority=%d quota=%d)",
		st.ID, spec.Net, spec.DType, spec.N, st.Priority, st.Quota)
	fmt.Println(st.ID)
}

// runWatch follows one campaign's NDJSON stream until it reaches a
// terminal state, then (when -out is set and the campaign completed)
// fetches the final merged report — bytes identical to a solo -out file.
func runWatch(join, token, id, out string) {
	if id == "" {
		log.Fatal("watch needs -campaign ID")
	}
	base := ctlBase(join)
	resp := ctlRequest("GET", base+"/v1/campaigns/"+id+"/stream", token, nil)
	var last controlplane.Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		fmt.Println(sc.Text())
		json.Unmarshal(sc.Bytes(), &last)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	switch last.State {
	case controlplane.StateDone:
	case controlplane.StateFailed, controlplane.StateCancelled:
		log.Fatalf("campaign %s %s", id, last.State)
	default:
		log.Fatalf("stream for %s ended while still %s", id, last.State)
	}
	if out == "" {
		return
	}
	rr := ctlRequest("GET", base+"/v1/campaigns/"+id+"/report", token, nil)
	defer rr.Body.Close()
	data, err := io.ReadAll(rr.Body)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// runCancel cancels one campaign.
func runCancel(join, token, id string) {
	if id == "" {
		log.Fatal("cancel needs -campaign ID")
	}
	resp := ctlRequest("POST", ctlBase(join)+"/v1/campaigns/"+id+"/cancel", token, nil)
	resp.Body.Close()
	log.Printf("cancelled %s", id)
}

// runList prints every queued campaign's status, one JSON line each.
func runList(join, token string) {
	resp := ctlRequest("GET", ctlBase(join)+"/v1/campaigns", token, nil)
	defer resp.Body.Close()
	var sts []controlplane.Status
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		log.Fatal(err)
	}
	for _, st := range sts {
		line, _ := json.Marshal(st)
		fmt.Println(string(line))
	}
}

// runToken mints a tenant's bearer token offline from the key file — the
// same derivation the control plane verifies against.
func runToken(tenantKeys, tenant string) {
	if tenantKeys == "" || tenant == "" {
		log.Fatal("token needs -tenant-keys FILE and -tenant NAME")
	}
	auth, err := controlplane.LoadKeyFile(tenantKeys)
	if err != nil {
		log.Fatal(err)
	}
	tok, err := auth.Token(tenant)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tok)
}

// writeStrata persists a stratified campaign's strata artifact for later
// -prior reuse: the merged pilot when one ran (so a reseeded campaign
// reconstructs this campaign's exact allocation table), plus the final
// per-stratum totals.
func writeStrata(path string, spec campaign.Spec, pilot *engine.StrataSummary, report *campaign.Report) {
	if path == "" {
		return
	}
	if err := spec.Normalize(); err != nil {
		log.Fatal(err)
	}
	if !spec.Stratified() {
		log.Fatal("-strata-out needs a stratified campaign")
	}
	a := &engine.StrataArtifact{
		Surface: spec.Surface, Net: spec.Net, DType: spec.DType, Buffer: spec.Buffer,
		N: spec.N, PilotN: spec.PilotN,
		Pilot: pilot, Total: report.Strata(),
	}
	if err := engine.WriteStrataArtifact(path, a); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote strata artifact %s", path)
}

// emit writes the report JSON (when requested) and prints the summary the
// interactive roles share. The JSON body is the inner surface report —
// exactly what a solo faultinj/eyeriss/systolic run of the same spec
// serializes to, so distributed and solo outputs byte-compare.
func emit(report *campaign.Report, out string) {
	if out != "" {
		data, err := json.MarshalIndent(report.Inner(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	c := report.Counts()
	masked := report.Masked()
	fmt.Printf("injections %d  masked %d (%.1f%%)\n",
		c.Trials, masked, 100*float64(masked)/float64(max(c.Trials, 1)))
	for _, k := range sdc.Kinds {
		// Stratified campaigns over-sample high-variance strata; the
		// weighted estimate undoes that, the raw proportion would not.
		p, ci := report.SDCEstimate(k)
		fmt.Printf("%-8s %.2f%% ±%.2f%%\n", k, 100*p, 100*ci)
	}
}
