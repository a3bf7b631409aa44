// Cross-surface conformance: the generic contract every Surface adapter
// must satisfy for the engine's orchestration to be sound. The checks are
// pure report algebra — they hold for any surface whose report merge is a
// commutative monoid over shard partials with NewReport as identity —
// plus the serialization round-trips the distributed campaign layer
// depends on. TestSurfaceConformance runs checkSurface against every
// surface adapter, so adding a fourth surface is one table entry.
package engine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
)

// checkSurface verifies the Surface contract for one adapter under one
// set of engine options:
//
//   - NewReport is a two-sided identity for Merge: folding a fresh report
//     in before, between or after shard partials never changes the result.
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
func checkSurface[R any](t *testing.T, s engine.Surface[R], opt engine.Options) {
	t.Helper()
	enc := func(label string, r R) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("surfacecheck: marshaling %s: %v", label, err)
		}
		return b
	}

	full := engine.Run[R](s, opt)
	want := enc("Run report", full)

	parts := engine.ShardReports(s, opt)

	// Zero identity: ε ⊕ p0 ⊕ ε ⊕ p1 ⊕ … ⊕ ε == Run.
	acc := s.NewReport()
	for _, p := range parts {
		s.Merge(acc, p)
		s.Merge(acc, s.NewReport())
	}
	if got := enc("identity-interleaved fold", acc); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: NewReport is not a Merge identity:\n got %s\nwant %s", got, want)
	}

	// Associativity: the right fold p0 ⊕ (p1 ⊕ (… ⊕ pS)) must match the
	// engine's left fold. Merge mutates dst, so each level folds the
	// suffix into a fresh report first.
	var rightFold func(ps []R) R
	rightFold = func(ps []R) R {
		out := s.NewReport()
		s.Merge(out, ps[0])
		if len(ps) > 1 {
			s.Merge(out, rightFold(ps[1:]))
		}
		return out
	}
	if got := enc("right fold", rightFold(parts)); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: Merge is not associative over shard order:\n got %s\nwant %s", got, want)
	}

	// Commutativity: the reversed fold pS ⊕ … ⊕ p0 must match too.
	rev := s.NewReport()
	for i := len(parts) - 1; i >= 0; i-- {
		s.Merge(rev, parts[i])
	}
	if got := enc("reversed fold", rev); !bytes.Equal(got, want) {
		t.Fatalf("surfacecheck: Merge is not commutative over shard order:\n got %s\nwant %s", got, want)
	}

	// Default width.
	zero, fixed := opt, opt
	zero.Workers, fixed.Workers = 0, engine.DefaultShards
	if got, want := enc("Workers: 0 report", engine.Run[R](s, zero)), enc("Workers: DefaultShards report", engine.Run[R](s, fixed)); !bytes.Equal(got, want) {
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
