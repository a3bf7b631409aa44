package engine

import (
	"runtime"
	"sync"

	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// Campaign is what every fault surface's campaign is made of besides its
// fault geometry: the network under injection, the word format, the inputs
// the campaign cycles through and the golden execution of each. The surface
// packages embed it by value in their (pointer-held) campaigns, and their
// Surface adapters hand it to RunSlot (Surface.Campaign). It holds sync.Once
// state, so it must not be copied after first use.
type Campaign struct {
	// Net is the network under injection. Every slot shares it read-only.
	Net *network.Network
	// DType is the word format of the injected datapath or buffer.
	DType numeric.Type
	// Inputs are the inference inputs draw units cycle through.
	Inputs []*tensor.Tensor
	// GoldenFn, when non-nil, resolves the golden execution of input i
	// instead of computing it directly: compute runs the fault-free forward
	// pass, and implementations return its result or a previously computed,
	// bit-identical one. The distributed campaign service hooks a
	// process-wide golden-execution cache here, so campaigns sharing
	// (network, weights, input, format) run the golden pass once per
	// machine, on any surface. Must be set before the first Golden call.
	GoldenFn func(i int, compute func() *network.Execution) *network.Execution

	// prepared guards Prepare's one-time derivation; invalid keeps its panic
	// value so every later call fails the same way.
	prepared sync.Once
	invalid  any
	// goldens holds one slot per input, sized on first use.
	goldensInit sync.Once
	goldens     []goldenSlot
}

type goldenSlot struct {
	once sync.Once
	exec *network.Execution
}

// Prepare fails fast on a campaign that cannot run — one without inputs —
// and runs derive, the surface's one-time derivation of its fault geometry,
// on the first call. A derivation that panicked panics again, with the same
// value, on every later call. The surfaces call it before handing out a
// Surface, so a malformed campaign is refused before any slot runs.
func (c *Campaign) Prepare(derive func()) {
	if len(c.Inputs) == 0 {
		panic("engine: campaign needs at least one input")
	}
	c.prepared.Do(func() {
		defer func() { c.invalid = recover() }()
		derive()
	})
	if c.invalid != nil {
		panic(c.invalid)
	}
}

// Golden returns the golden execution of input i, resolved exactly once for
// the campaign's lifetime — through GoldenFn when it is set (a process-wide
// cache, a tracer), by the fault-free pass otherwise — and read by every
// later request from any shard, phase, run or caller. The memo sits in front
// of the hook, so a hook that does not cache still costs one forward pass per
// input; concurrent requests for one input block on a single resolve.
//
// The pass splits each layer four ways per core: the split is static, and
// with one part per core the pass waits on the slowest (ConvNet's pass is
// ~1.5× faster on two cores at eight parts than at two).
func (c *Campaign) Golden(i int) *network.Execution {
	c.goldensInit.Do(func() { c.goldens = make([]goldenSlot, len(c.Inputs)) })
	s := &c.goldens[i]
	s.once.Do(func() {
		compute := func() *network.Execution { return c.Net.ForwardParallel(c.DType, c.Inputs[i], 4*runtime.NumCPU()) }
		if c.GoldenFn != nil {
			s.exec = c.GoldenFn(i, compute)
		} else {
			s.exec = compute()
		}
	})
	return s.exec
}
