package campaign

import (
	"sync"

	"repro/internal/network"
)

// GoldenKey identifies one golden (fault-free) execution. Two campaigns
// whose keys match may share the execution: the network name and weights
// hash pin the arithmetic, the dtype pins the quantization, and the input
// index pins the image (inputs are generated deterministically per
// network, so an index is a complete description).
type GoldenKey struct {
	Net         string
	WeightsHash uint64
	DType       string
	Input       int
}

type goldenEntry struct {
	once sync.Once
	exec *network.Execution
}

// GoldenCache deduplicates golden executions across the campaigns of one
// process. A worker leasing shards of many campaigns over the same
// (network, weights, format, input) coordinates pays for each golden pass
// once; concurrent requests for the same key block on a single compute.
type GoldenCache struct {
	mu      sync.Mutex
	entries map[GoldenKey]*goldenEntry

	hits, misses int
}

// NewGoldenCache returns an empty cache.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{entries: make(map[GoldenKey]*goldenEntry)}
}

// Get returns the cached execution for key, computing it with compute on
// first use. compute runs at most once per key even under concurrent Gets.
func (g *GoldenCache) Get(key GoldenKey, compute func() *network.Execution) *network.Execution {
	g.mu.Lock()
	e, ok := g.entries[key]
	if !ok {
		e = &goldenEntry{}
		g.entries[key] = e
		g.misses++
	} else {
		g.hits++
	}
	g.mu.Unlock()
	e.once.Do(func() { e.exec = compute() })
	return e.exec
}

// Stats reports cache effectiveness: distinct goldens computed and lookups
// served from cache.
func (g *GoldenCache) Stats() (hits, misses int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hits, g.misses
}

// campaignSet memoizes prepared campaigns of every surface per campaignKey,
// so that a worker executing many leases of the same campaign reuses one
// prepared campaign object — the datapath's network, profile and goldens;
// a buffer or systolic campaign's validated geometry and weights hash —
// instead of rebuilding per lease, and wires each to one shared golden
// cache.
//
// The memo is the golden-cache namespace layer for interleaved campaigns:
// GoldenKey itself is content-addressed (the weights hash pins the loaded
// arithmetic), but two campaigns naming the same WeightsDir path could see
// different directory contents if the files change between submissions.
// Namespacing such specs by campaign ID makes each campaign load its own
// weights exactly once, preserving the per-campaign solo bit-identity
// guarantee; built-in-weight specs stay shared across campaigns, so the
// fleet still pays one golden pass per (network, format, input).
type campaignSet struct {
	mu      sync.Mutex
	byKey   map[string]any // the surface packages' *Campaign types
	goldens *GoldenCache
}

func newCampaignSet(goldens *GoldenCache) *campaignSet {
	if goldens == nil {
		goldens = NewGoldenCache()
	}
	return &campaignSet{byKey: make(map[string]any), goldens: goldens}
}

// prepared returns the set's campaign for spec, calling build — a surface
// table row's campaign constructor — with the shared golden cache on first
// use. campaignID namespaces specs that load mutable external content.
func prepared[C any](cs *campaignSet, campaignID string, spec Spec, build func(Spec, *GoldenCache) (C, error)) (C, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	key := spec.campaignKey()
	if spec.WeightsDir != "" {
		key = campaignID + "|" + key
	}
	if c, ok := cs.byKey[key]; ok {
		return c.(C), nil
	}
	c, err := build(spec, cs.goldens)
	if err != nil {
		return c, err
	}
	cs.byKey[key] = c
	return c, nil
}
