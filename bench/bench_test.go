package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the schema in metrics.go")

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []wlEntry   `json:"workloads"`
	EndToEnd   []e2eEntry  `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type wlEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// e2eEntry always carries its bound, unlike the per-layer entries.
type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		PerLayer:   perLayerDefs(),
	}
	for _, n := range workloadNames {
		f.Workloads = append(f.Workloads, wlEntry{n, workloadWhy[n]})
	}
	for _, d := range endToEndDefs {
		f.EndToEnd = append(f.EndToEnd, e2eEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	return f
}

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to the schema
// the program emits, and inside the limits the contract sets.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of date with metrics.go; run go test -run TestBenchmarkJSON -update", path)
	}
	f := wantBenchmarkFile()
	if n := len(f.PerLayer); n != 121 || n > 128 {
		t.Errorf("%d per-layer metrics, want 121 (at most 128)", n)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), f.PerLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit too long", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > endToEndDefs[0].Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", d.Name, d.Bound)
		}
	}
	for _, w := range f.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestQuick runs every workload at the quick scale, untraced and traced,
// through the same run function the command uses.
func TestQuick(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{
				Workload: name, Seed: defaultSeed, Seconds: 0.5, Scale: quickScale,
				BenchDir: ".", OutDir: t.TempDir(), Log: io.Discard,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndDefs)
			for _, d := range endToEndDefs {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.Name, res.Metrics[d.Name].Value)
				}
			}

			cfg.Trace = true
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerDefs())
			v := func(n string) float64 { return res.Metrics[n].Value }
			// Bypass checks: the solo workloads never touch the plane, and
			// fleet-ingest never runs an injection in its timed phase.
			switch name {
			case "solo-small", "solo-deep":
				if v("controlplane.http.requests") != 0 || v("controlplane.journal.fsyncs") != 0 {
					t.Errorf("solo workload reached the control plane: %v requests", v("controlplane.http.requests"))
				}
			case "fleet-ingest":
				if v("campaign.golden_misses") != 0 || v("campaign.execute_lease_ms_p50.datapath") != 0 {
					t.Errorf("fleet-ingest executed injections in its timed phase")
				}
				fallthrough
			case "fleet-mixed":
				if v("controlplane.http.requests") == 0 || v("controlplane.journal.fsyncs") == 0 {
					t.Errorf("fleet workload shows no plane traffic")
				}
			}
			if name == "fleet-mixed" && (v("campaign.golden_misses") == 0 || v("campaign.first_ci_ms_p50") <= 0) {
				t.Errorf("fleet-mixed: golden_misses %v, first_ci_ms_p50 %v", v("campaign.golden_misses"), v("campaign.first_ci_ms_p50"))
			}
			checkTrace(t, filepath.Join(cfg.OutDir, "trace-"+name+".ndjson"))
		})
	}
}

// checkResult asserts a verified run that reports exactly the schema's
// metrics, each once (a JSON object cannot repeat a key) and with its unit.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, schema has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: reported %v with unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
}

// checkTrace parses a trace file: every span lies inside its parent, and
// no span's children cover more than the span itself.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.ID != i+1 || s.EndNS < s.StartNS || s.TraceID == "" {
			t.Fatalf("span %d: id %d, [%d, %d], trace %q", i+1, s.ID, s.StartNS, s.EndNS, s.TraceID)
		}
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if s.Parent >= s.ID || s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.TraceID != p.TraceID {
			t.Fatalf("span %d %s [%d, %d] is not inside its parent %d %s [%d, %d]",
				s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range spans {
		if self := spans[i].EndNS - spans[i].StartNS - covered(children[spans[i].ID]); self < 0 {
			t.Fatalf("span %d %s has negative self time %d", spans[i].ID, spans[i].Name, self)
		}
	}
	rows, rootMS, roots := selfTimes(spans, "campaign")
	if roots == 0 || rootMS <= 0 || len(rows) == 0 {
		t.Fatalf("%s: %d campaign roots, mean %v ms", path, roots, rootMS)
	}
}

func TestPinNamesFirstDifferingField(t *testing.T) {
	a := []byte(`{"Counts": {"Trials": 10}, "Masked": 4, "Strata": null}`)
	p := makePin(a)
	if f := p.firstDiff(a); f != "" {
		t.Errorf("equal documents differ on %q", f)
	}
	if f := p.firstDiff([]byte(`{"Counts": {"Trials": 10}, "Masked": 5, "Strata": null}`)); f != "Masked" {
		t.Errorf("first differing field %q, want Masked", f)
	}
	if f := p.firstDiff([]byte(`{"Counts": {"Trials": 10}, "Masked": 4}`)); f != "Strata (missing)" {
		t.Errorf("first differing field %q, want the missing Strata", f)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
