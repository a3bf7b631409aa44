package network

import "sync/atomic"

// Per-layer auto-tuning of the sparse-propagation density cutoff. The
// static layers.DefaultSparseDensityCutoff (0.5) sits in the middle of the
// empirically flat sparse/dense crossover band (~0.4–0.8, per the
// BENCH_3.json sweeps); where inside the band a layer should sit depends
// on the changed-set densities its faults actually produce, which differ
// per layer (early CONV cones stay tiny, late FC deltas are dense). The
// auto-tuner observes the input density of every delta step and tunes each
// layer's cutoff within the band: layers whose perturbations typically stay
// sparse keep the sparse path up to 0.8, layers that routinely see dense
// deltas hand over to the dense pass at 0.4. The choice only moves work
// between two bit-identical code paths, so reports are invariant under any
// tuning (and under the cross-shard observation races the atomics allow).
const (
	// autoCutoffWarmup is the number of observations a layer needs before
	// its tuned cutoff replaces the package default.
	autoCutoffWarmup = 64
	// autoCutoffScale converts observed densities (∈ [0,1]) to the fixed-
	// point accumulator grid.
	autoCutoffScale = 1 << 32
	// autoCutoffLo/Hi bound the tuned cutoff to the flat crossover band.
	autoCutoffLo = 0.4
	autoCutoffHi = 0.8
)

// autoCutoffState accumulates per-layer density observations. Concurrent
// campaign shards share one instance; the accumulators are independent
// atomics, so observations from any interleaving produce a valid (if not
// identical) tuning — acceptable because every tuning is report-invariant.
type autoCutoffState struct {
	stats []cutoffStat
}

type cutoffStat struct {
	// sum accumulates observed densities in 32.32 fixed point; n counts
	// them.
	sum atomic.Uint64
	n   atomic.Uint64
}

// EnableAutoSparseCutoff attaches the per-layer density auto-tuner to the
// network: every subsequent sparse delta propagation observes its per-layer
// changed-set densities and resolves each layer's dense-fallback cutoff
// from the running mean instead of the global default. An explicit
// SetSparseDensityCutoff override takes precedence. Results are
// bit-identical at any cutoff; only throughput changes.
func (n *Network) EnableAutoSparseCutoff() {
	if n.autoCutoff.Load() != nil {
		return
	}
	n.autoCutoff.CompareAndSwap(nil, &autoCutoffState{stats: make([]cutoffStat, len(n.Layers))})
}

// observe records one delta step's input density for a layer and returns
// the layer's current cutoff: 0 (the package default) until the layer has
// warmed up, then clamp(0.8 − mean density, 0.4, 0.8) — the sparser a
// layer's typical perturbations, the longer it keeps the sparse path.
func (st *autoCutoffState) observe(layer int, density float64) float64 {
	s := &st.stats[layer]
	if density < 0 {
		density = 0
	} else if density > 1 {
		density = 1
	}
	s.sum.Add(uint64(density * autoCutoffScale))
	cnt := s.n.Add(1)
	if cnt < autoCutoffWarmup {
		return 0
	}
	mean := float64(s.sum.Load()) / autoCutoffScale / float64(cnt)
	c := autoCutoffHi - mean
	if c < autoCutoffLo {
		c = autoCutoffLo
	}
	return c
}

// AutoSparseCutoffs reports the current effective per-layer cutoffs of the
// auto-tuner (0 = package default: tuner disabled, layer not warmed up, or
// layer never observed). Diagnostic only.
func (n *Network) AutoSparseCutoffs() []float64 {
	st := n.autoCutoff.Load()
	if st == nil {
		return nil
	}
	out := make([]float64, len(st.stats))
	for i := range st.stats {
		s := &st.stats[i]
		cnt := s.n.Load()
		if cnt < autoCutoffWarmup {
			continue
		}
		c := autoCutoffHi - float64(s.sum.Load())/autoCutoffScale/float64(cnt)
		if c < autoCutoffLo {
			c = autoCutoffLo
		}
		out[i] = c
	}
	return out
}
