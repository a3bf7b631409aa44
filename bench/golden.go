package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
)

// defaultSeed is the seed bench/golden.json pins.
const defaultSeed = 1

// surfaceJSON renders a campaign report the way `faultserve -role solo
// -out` and GET /v1/campaigns/{id}/report do: the inner surface report,
// indented, no trailing newline. Every correctness check compares these
// bytes.
func surfaceJSON(r *campaign.Report) ([]byte, error) {
	var inner any = r.Datapath
	if r.Buffer != nil {
		inner = r.Buffer
	}
	if r.Systolic != nil {
		inner = r.Systolic
	}
	return json.MarshalIndent(inner, "", "  ")
}

// soloBytes is the single-process path: campaign.SoloReport, rendered.
func soloBytes(spec campaign.Spec) ([]byte, error) {
	r, _, err := campaign.SoloReport(spec, nil)
	if err != nil {
		return nil, err
	}
	return surfaceJSON(r)
}

// shardedBytes is the distributed path run in-process with no server: a
// campaign.Machine hands out every slot, campaign.ExecuteLease computes
// it, and the machine merges. It is the reference the solo workloads are
// checked against (the fleet workloads are checked against soloBytes), so
// a check never compares a code path with itself. It also returns every
// slot's shard report, which fleet-ingest delivers.
func shardedBytes(spec campaign.Spec, goldens *campaign.GoldenCache) ([]byte, []*campaign.Report, error) {
	m, err := campaign.NewMachine(spec, 0)
	if err != nil {
		return nil, nil, err
	}
	slots := make([]*campaign.Report, m.Spec().Slots())
	for !m.Done() {
		// Everything leasable now runs as one wave on two executors; a
		// stratified campaign needs a second wave once its pilot merged.
		var wave []*campaign.Lease
		for m.Available() {
			wave = append(wave, m.Lease(time.Now(), time.Hour))
		}
		if len(wave) == 0 {
			return nil, nil, fmt.Errorf("machine stalled at %d/%d slots", m.Completed(), len(slots))
		}
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < len(wave); i += 2 {
					slots[wave[i].Slot], errs[i] = campaign.ExecuteLease(wave[i], goldens)
				}
			}(p)
		}
		wg.Wait()
		for i, l := range wave {
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			if _, err := m.Accept(l.Slot, slots[l.Slot]); err != nil {
				return nil, nil, err
			}
		}
	}
	final, err := m.FinalReport()
	if err != nil {
		return nil, nil, err
	}
	b, err := surfaceJSON(final)
	return b, slots, err
}

// pin is the committed fingerprint of one cell's final report at the
// default seed: the SHA-256 of the whole document, and a short hash per
// top-level field so a mismatch can say which field moved.
type pin struct {
	SHA256 string            `json:"sha256"`
	Fields map[string]string `json:"fields"`
}

// goldenPins is bench/golden.json: scale → workload → cell → pin.
type goldenPins map[string]map[string]map[string]pin

// topFields splits a JSON object into its top-level fields, in document
// order.
func topFields(doc []byte) (names []string, raw map[string]json.RawMessage) {
	raw = make(map[string]json.RawMessage)
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, raw
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			break
		}
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			break
		}
		names = append(names, key.(string))
		raw[key.(string)] = v
	}
	return names, raw
}

func makePin(doc []byte) pin {
	sum := sha256.Sum256(doc)
	p := pin{SHA256: hex.EncodeToString(sum[:]), Fields: make(map[string]string)}
	names, raw := topFields(doc)
	for _, n := range names {
		fs := sha256.Sum256(raw[n])
		p.Fields[n] = hex.EncodeToString(fs[:6])
	}
	return p
}

// firstDiff names the first top-level field on which got departs from the
// pin, "" when the documents are equal.
func (p pin) firstDiff(got []byte) string {
	g := makePin(got)
	if g.SHA256 == p.SHA256 {
		return ""
	}
	names, _ := topFields(got)
	for _, n := range names {
		if g.Fields[n] != p.Fields[n] {
			return n
		}
	}
	missing := make([]string, 0)
	for n := range p.Fields {
		if _, ok := g.Fields[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		return missing[0] + " (missing)"
	}
	return "(formatting)"
}

// diffField names the first top-level field on which two reports differ.
func diffField(want, got []byte) string { return makePin(want).firstDiff(got) }

func goldenPath(benchDir string) string { return filepath.Join(benchDir, "golden.json") }

func loadPins(benchDir string) (goldenPins, error) {
	data, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, err
	}
	var g goldenPins
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %v", goldenPath(benchDir), err)
	}
	return g, nil
}

// checkPins compares every reference report of a workload with its pin.
func checkPins(g goldenPins, sc scale, w *workload, refs [][]byte) error {
	cells := g[sc.Name][w.Name]
	for i, c := range w.Cells {
		p, ok := cells[c.Name]
		if !ok {
			return fmt.Errorf("%s: cell %s has no pin in golden.json (run -update-golden)", w.Name, c.Name)
		}
		if f := p.firstDiff(refs[i]); f != "" {
			return fmt.Errorf("%s: cell %s departs from golden.json, first differing field %s", w.Name, c.Name, f)
		}
	}
	return nil
}

// updatePins recomputes the pins of every workload at both scales.
func updatePins(benchDir string) error {
	g := make(goldenPins)
	for _, sc := range []scale{fullScale, quickScale} {
		g[sc.Name] = make(map[string]map[string]pin)
		for _, name := range workloadNames {
			w, err := buildWorkload(name, defaultSeed, sc)
			if err != nil {
				return err
			}
			g[sc.Name][name] = make(map[string]pin)
			for _, c := range w.Cells {
				b, err := soloBytes(c.Spec)
				if err != nil {
					return fmt.Errorf("%s %s: %v", name, c.Name, err)
				}
				g[sc.Name][name][c.Name] = makePin(b)
			}
			fmt.Printf("pinned %s/%s: %d cells\n", sc.Name, name, len(w.Cells))
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(benchDir), append(data, '\n'), 0o644)
}
