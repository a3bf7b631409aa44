package layers

import (
	"sync"

	"repro/internal/numeric"
)

// QuantCache memoizes the quantized weights and biases of CONV/FC layers
// per numeric format. Quantization is idempotent, so reading parameters
// through the cache is bit-identical to quantizing them inside every
// forward pass — but it happens once per (layer, format) instead of once
// per inference, which removes the dominant allocation on the
// fault-injection hot path. A cache is safe for concurrent use: entries
// are computed under a lock and immutable afterwards, so campaign workers
// share them read-only.
//
// The cache snapshots the parameter values at first use. Code that mutates
// layer weights afterwards (training) must drop the cache — see
// network.InvalidateQuantCache. Nothing writes into a cached slice: a fault
// in a stored weight is a TargetWeight fault on every MAC that reads it.
type QuantCache struct {
	mu      sync.RWMutex
	entries map[quantKey]*quantEntry
}

type quantKey struct {
	layer Layer
	dt    numeric.Type
}

type quantEntry struct {
	weights, bias []float64
}

// NewQuantCache creates an empty cache.
func NewQuantCache() *QuantCache {
	return &QuantCache{entries: make(map[quantKey]*quantEntry)}
}

// params returns the quantized (weights, bias) of a layer under dt,
// computing and storing them on first use. The returned slices are shared
// and must be treated as read-only.
func (c *QuantCache) params(dt numeric.Type, l Layer, weights, bias []float64) (qw, qb []float64) {
	key := quantKey{layer: l, dt: dt}
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		return e.weights, e.bias
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[key]; e != nil { // lost the race to another worker
		return e.weights, e.bias
	}
	e = &quantEntry{weights: quantizeSlice(dt, weights), bias: quantizeSlice(dt, bias)}
	c.entries[key] = e
	return e.weights, e.bias
}

// quantizeSlice quantizes every element of s under dt. Binary64 is the
// simulator's carrier type, so its quantization is the identity and the
// original slice is shared instead of copied.
func quantizeSlice(dt numeric.Type, s []float64) []float64 {
	if dt == numeric.Double {
		return s
	}
	q := make([]float64, len(s))
	quant := dt.QuantFunc()
	for i, v := range s {
		q[i] = quant(v)
	}
	return q
}

// quantizedParams resolves the quantized parameters of a MAC layer for
// this context: through the cache when one is attached, computed on the
// fly otherwise. Either way the values are bit-identical to quantizing
// inside the MAC loop.
func (ctx *Context) quantizedParams(l Layer, weights, bias []float64) (qw, qb []float64) {
	if ctx.Quant != nil {
		return ctx.Quant.params(ctx.DType, l, weights, bias)
	}
	return quantizeSlice(ctx.DType, weights), quantizeSlice(ctx.DType, bias)
}
