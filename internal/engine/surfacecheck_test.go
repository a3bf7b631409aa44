// Cross-surface conformance: the generic contract every Surface adapter
// must satisfy for the engine's orchestration to be sound. The checks are
// pure report algebra — they hold for any surface whose report merge is a
// commutative monoid over shard partials with the zero report as identity —
// plus the serialization round-trips the distributed campaign layer
// depends on. TestSurfaceConformance runs checkSurface against every
// surface adapter, so adding a fourth surface is one table entry.
package engine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinj"
	"repro/internal/sdc"
)

// checkSurface verifies the Surface contract for one adapter under one
// set of engine options:
//
//   - The zero report ε = new(T) is a two-sided identity for Merge: a
//     fold that starts from ε ⊕ ε and folds ε in after every shard partial
//     never changes the result.
//   - Merge is associative and commutative over shard partials: the
//     left fold, right fold, and reversed fold of the S shard reports all
//     serialize identically, and all equal Run (the engine's canonical
//     shard-order merge).
//   - Strata round-trip: the strata summary of a stratified report
//     survives a JSON encode/decode bit-for-bit, and Strata returns nil
//     for uniform reports.
//   - Default width: the report of a zero Workers request is the report at
//     Workers = DefaultShards, whatever the host.
//
// Surfaces whose reports carry order-sensitive extras (e.g. capped value
// sampling) must be checked with those features disabled — the engine
// only ever merges in shard order, so only the monoid core is load-
// bearing there; commutativity is what licenses the coordinator's
// out-of-order partial aggregation displays.
func checkSurface[T any, R engine.Mergeable[T]](t *testing.T, s engine.Surface[R], opt engine.Options) {
	t.Helper()
	enc := func(label string, r R) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("surfacecheck: marshaling %s: %v", label, err)
		}
		return b
	}

	full := engine.Run(s, opt)
	want := enc("Run report", full)

	parts := engine.ShardReports(s, opt)

	// Zero identity: ε ⊕ ε ⊕ p0 ⊕ ε ⊕ p1 ⊕ … ⊕ ε == Run — ε as the
	// receiver of ε and of p0, and as the operand after every partial.
	acc := R(new(T))
	acc.Merge(new(T))
	for _, p := range parts {
		acc.Merge(p)
		acc.Merge(new(T))
	}
	if got := enc("identity-interleaved fold", acc); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: the zero report is not a Merge identity:\n got %s\nwant %s", got, want)
	}

	// Associativity: the right fold p0 ⊕ (p1 ⊕ (… ⊕ pS)) must match the
	// engine's left fold. Merge mutates its receiver, so each level folds
	// the suffix into a fresh report first.
	var rightFold func(ps []R) R
	rightFold = func(ps []R) R {
		out := R(new(T))
		out.Merge(ps[0])
		if len(ps) > 1 {
			out.Merge(rightFold(ps[1:]))
		}
		return out
	}
	if got := enc("right fold", rightFold(parts)); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: Merge is not associative over shard order:\n got %s\nwant %s", got, want)
	}

	// Commutativity: the reversed fold pS ⊕ … ⊕ p0 must match too.
	rev := R(new(T))
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if got := enc("reversed fold", rev); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: Merge is not commutative over shard order:\n got %s\nwant %s", got, want)
	}

	// Default width.
	zero, fixed := opt, opt
	zero.Workers, fixed.Workers = 0, engine.DefaultShards
	if got, want := enc("Workers: 0 report", engine.Run(s, zero)), enc("Workers: DefaultShards report", engine.Run(s, fixed)); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: Workers 0 is not the DefaultShards partition:\n got %s\nwant %s", got, want)
	}

	// Strata presence and round-trip.
	sum := s.Strata(full)
	if opt.Sampling != engine.SamplingStratified {
		if sum != nil {
			t.Fatalf("surfacecheck: uniform report carries strata")
		}
		return
	}
	if sum == nil {
		t.Fatalf("surfacecheck: stratified report has no strata")
	}
	b1, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("surfacecheck: marshaling strata: %v", err)
	}
	var back engine.StrataSummary
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatalf("surfacecheck: unmarshaling strata: %v", err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("surfacecheck: re-marshaling strata: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("surfacecheck: strata summary does not survive a JSON round-trip:\n got %s\nwant %s", b2, b1)
	}
	if back.Blocks != sum.Blocks || back.Bits != sum.Bits || len(back.Counts) != len(sum.Counts) {
		t.Fatalf("surfacecheck: strata dims changed across the round-trip")
	}
}

// TestMergeAll pins the nil contract of the engine's one report fold: nil
// entries are skipped, a fold of none or only nils is nil, and the result
// is always a fresh report — a single entry comes back deep-copied, and no
// fold writes through to a slot report, its strata included.
func TestMergeAll(t *testing.T) {
	slot := func(trials int) *faultinj.Report {
		r := &faultinj.Report{PerBit: make([]sdc.Counts, 2), PerBlock: make([]sdc.Counts, 1),
			SpreadSum: make([]float64, 1), SpreadN: make([]int, 1),
			Strata: engine.NewStrata(1, 2, engine.HexFloats{0.5, 0.5}, false)}
		r.Counts.Trials, r.PerBit[0].Trials, r.PerBlock[0].Trials, r.Strata.Counts[0].Trials = trials, trials, trials, trials
		return r
	}
	enc := func(r *faultinj.Report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := slot(3), slot(4)
	for _, tc := range []struct {
		name string
		rs   []*faultinj.Report
		want *faultinj.Report
	}{
		{"none", nil, nil},
		{"all nil", []*faultinj.Report{nil, nil}, nil},
		{"single", []*faultinj.Report{a}, slot(3)},
		{"nils skipped", []*faultinj.Report{nil, a, nil, b, nil}, slot(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := engine.MergeAll(tc.rs)
			if tc.want == nil {
				if got != nil {
					t.Fatalf("MergeAll = %s, want nil", enc(got))
				}
				return
			}
			if enc(got) != enc(tc.want) {
				t.Fatalf("MergeAll = %s, want %s", enc(got), enc(tc.want))
			}
			// Writing through the result must not reach a slot report.
			got.Counts.Trials++
			got.PerBit[0].Trials++
			got.Strata.Counts[0].Trials++
			if enc(a) != enc(slot(3)) || enc(b) != enc(slot(4)) {
				t.Fatalf("MergeAll aliased a slot report: first slot is now %s", enc(a))
			}
		})
	}
}
