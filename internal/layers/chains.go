package layers

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
)

// GoldenChains memoizes, per MAC layer of one golden execution, the golden
// accumulation-chain internals of every output element: the partial
// accumulator after each tap (prefix) and each tap's quantized product
// (prods). Both depend only on the golden input and the layer parameters,
// so they are shared by every faulty replay of the element — a lane that
// differs from golden at a known set of inputs can start at the partial
// before its first changed tap, reuse the cached product of every unchanged
// tap, and stop (or skip ahead) as soon as its accumulator re-converges
// bit-wise with a golden partial: from an equal partial, identical
// remaining operations reproduce the golden partials exactly. The replay is
// bit-identical to the full ForwardElement chain for every numeric format.
//
// The state belongs to the golden execution (network.Execution attaches one
// on its first delta walk) and is bound to that execution's numeric format.
// It is keyed by network layer index, not Layer pointer: every campaign
// builds its own Network, yet all that share a golden execution share its
// chains. It is safe for concurrent use by any number of walkers: an
// element's rows are written once, under one of the layer's striped fill
// locks, and published by an atomic store of its filled flag; a reader that
// loads the flag set reads the rows without locking, and only a miss takes
// a lock. Everything a walker mutates per step lives in its ChainScratch.
type GoldenChains struct {
	// The golden execution holds this handle and the byte ledger holds the
	// state behind it, so an execution the collector reclaims takes its
	// chains off the ledger (the handle's finalizer) instead of leaving them
	// accounted — and allocated — until the budget evicts them.
	*chainState
}

type chainState struct {
	dt     numeric.Type
	layers []atomic.Pointer[layerChains] // by network layer index
	bytes  int64                         // accounted in chainLedger; guarded by its mutex
}

// NewGoldenChains creates the empty chain state of a golden execution of an
// nLayers-layer network under dt. Nothing is allocated per layer until a
// delta walk first replays a chain of it.
func NewGoldenChains(dt numeric.Type, nLayers int) *GoldenChains {
	g := &GoldenChains{&chainState{dt: dt, layers: make([]atomic.Pointer[layerChains], nLayers)}}
	runtime.SetFinalizer(g, func(g *GoldenChains) {
		chainLedger.Lock()
		defer chainLedger.Unlock()
		if i := slices.Index(chainLedger.live, g.chainState); i >= 0 {
			chainLedger.evict(i)
		}
	})
	return g
}

// Bytes reports the chain bytes currently accounted to this execution: what
// its allocated layers hold, zero again after an eviction.
func (g *GoldenChains) Bytes() int64 {
	chainLedger.Lock()
	defer chainLedger.Unlock()
	return g.bytes
}

// maxChainCacheBytes bounds the cached chain state of a single layer. A
// layer whose elems×chain footprint exceeds it is never cached (delta
// replays fall back to the plain recompute), keeping worst-case memory
// independent of network size.
const maxChainCacheBytes = 64 << 20

// chainBudget bounds the chain state of all golden executions of the
// process together. Golden executions are retained for the life of a worker
// (campaign.GoldenCache) and their chains are an order of magnitude larger
// than their activations, so without it a long-lived worker grows with
// every distinct golden it has ever walked. A variable only so tests can
// lower it.
var chainBudget int64 = 512 << 20

// chainLedger accounts the bytes of every allocated layerChains against
// chainBudget, executions in order of first allocation.
var chainLedger chainBytes

type chainBytes struct {
	sync.Mutex
	bytes int64
	live  []*chainState
}

// evict drops every chain of execution live[i] and takes it off the ledger.
// The chains are only a cache: a walker in flight keeps the entry it
// resolved, and the execution's next walk refills. The caller holds the
// lock.
func (led *chainBytes) evict(i int) {
	old := led.live[i]
	led.live = slices.Delete(led.live, i, i+1)
	for li := range old.layers {
		old.layers[li].Store(nil)
	}
	led.bytes -= old.bytes
	old.bytes = 0
}

// chainFillStripes is the number of fill locks per layer: fills of elements
// in different stripes proceed concurrently.
const chainFillStripes = 64

type layerChains struct {
	chain  int
	prefix []float64       // elems × (chain+1): golden partial accumulators
	prods  []float64       // elems × chain: golden quantized tap products
	bounds []float64       // elems × 2: numeric.ChainBounds of each element's rows
	filled []atomic.Uint32 // per element: 1 once its rows are written
	fillMu [chainFillStripes]sync.Mutex
}

// ChainScratch is the bookkeeping one delta walker mutates while it steps
// layers: which inputs changed, which output positions they cover, and the
// changed tap steps and lane values of each. One walker owns it for the
// whole walk (a network.SlotScratch holds one); it is never shared state.
type ChainScratch struct {
	covered []bool    // covered-output marks: CONV positions, POOL/LRN recomputed outputs; all false between steps
	spatial []int     // the positions or outputs covered marks
	pos     []int     // per CONV output position: its index in spatial (read only at covered positions)
	sorted  []int     // an ascending copy of a CONV step's changed set, when the caller's is not
	steps   []int     // changed tap steps
	xs      []float64 // faulty input at each changed tap
	offs    []int     // per-spatial-position offsets into steps/xs (CONV)
	vals    []float64 // replayed lane results: per output (FC), position × channel (CONV)
}

// scratch returns the walker's scratch, or a throwaway one for a bare
// ForwardDelta call.
func (ctx *Context) scratch() *ChainScratch {
	if ctx.Scratch != nil {
		return ctx.Scratch
	}
	return new(ChainScratch)
}

// marks returns s grown to n elements. Callers clear what they set, so a
// grown or reused slice is all false.
func marks(s []bool, n int) []bool {
	if len(s) < n {
		return make([]bool, n)
	}
	return s
}

// grow returns s resized to n elements, contents unspecified. Capacity
// grows amortized, so a walker whose sizes creep up step by step settles
// after a few reallocations instead of one per step.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// chainEntry resolves the golden chain state of the MAC layer this context
// is stepping (ctx.Layer), or nil when the cached replay is unavailable: no
// chains attached, no golden input to fill from (layer 0 reads raw data), a
// live fault (faulted-layer replays must go through the fault-aware path),
// no parameter cache, chains created for another format or a shallower
// network, or a layer over the per-layer cap or the process budget.
func (ctx *Context) chainEntry(outElems, chain int) *layerChains {
	g := ctx.Chains
	if g == nil || ctx.GoldenIn == nil || ctx.Fault != nil || ctx.Quant == nil || g.dt != ctx.DType || ctx.Layer >= len(g.layers) {
		return nil
	}
	lc := g.layers[ctx.Layer].Load()
	if lc == nil {
		if lc = g.alloc(ctx.Layer, outElems, chain); lc == nil {
			return nil
		}
	}
	if lc.chain != chain || len(lc.filled) != outElems {
		panic(fmt.Sprintf("layers: golden chains of layer %d hold %d×%d, walker's layer is %d×%d: the execution belongs to another network",
			ctx.Layer, len(lc.filled), lc.chain, outElems, chain))
	}
	return lc
}

// alloc creates the chain state of layer li, evicting the chains of whole
// executions — oldest first, possibly g's own other layers — while the
// process budget would be exceeded. It returns nil when the layer fits
// neither the per-layer cap nor an emptied budget.
func (g *chainState) alloc(li, outElems, chain int) *layerChains {
	need := int64(outElems) * int64((2*chain+3)*8+4)
	if need > maxChainCacheBytes {
		return nil
	}
	led := &chainLedger
	led.Lock()
	defer led.Unlock()
	if lc := g.layers[li].Load(); lc != nil {
		return lc // lost the race to another walker
	}
	for led.bytes+need > chainBudget && len(led.live) > 0 {
		led.evict(0)
	}
	if led.bytes+need > chainBudget {
		return nil
	}
	if g.bytes == 0 {
		led.live = append(led.live, g)
	}
	g.bytes += need
	led.bytes += need
	lc := &layerChains{
		chain:  chain,
		prefix: make([]float64, outElems*(chain+1)),
		prods:  make([]float64, outElems*chain),
		bounds: make([]float64, 2*outElems),
		filled: make([]atomic.Uint32, outElems),
	}
	g.layers[li].Store(lc)
	return lc
}

// fill writes the rows of element oi once: compute receives the element's
// prefix (chain+1) and prods (chain) rows and returns the chain's final
// accumulator, which must be the golden output element want bit for bit —
// the state outlives any one walk and is shared across Network instances,
// so chains filled from other weights than the execution's must fail here
// rather than poison every later replay. The element's bounds are derived
// from the written rows.
func (lc *layerChains) fill(ctx *Context, oi int, want float64, compute func(prefix, prods []float64) float64) {
	mu := &lc.fillMu[oi%chainFillStripes]
	mu.Lock()
	defer mu.Unlock()
	if lc.filled[oi].Load() != 0 {
		return // lost the race to another walker
	}
	prefix, prods := lc.prefix[oi*(lc.chain+1):(oi+1)*(lc.chain+1)], lc.prods[oi*lc.chain:(oi+1)*lc.chain]
	got := compute(prefix, prods)
	if !bitsEqual(got, want) {
		panic(fmt.Sprintf("layers: golden chain of layer %d element %d ends at %v under %s, the golden execution holds %v: the execution was not produced by this network's weights and format",
			ctx.Layer, oi, got, ctx.DType, want))
	}
	lc.bounds[2*oi], lc.bounds[2*oi+1] = numeric.ChainBounds(prefix, prods)
	lc.filled[oi].Store(1)
}

// Replays against the cached chains run through numeric.Type.ChainReplay,
// whose per-format loops advance the lanes of a call — the chains that share
// a changed-tap set — in groups and decompose each MAC into product-quantize
// and accumulate-quantize, bit-identical to the MACFunc chain; fixed-point
// lanes that provably never saturate take the closed form over the changed
// taps alone, from the stored bounds.
