package network

import (
	"runtime"
	"sync"

	"repro/internal/numeric"
	"repro/internal/tensor"
)

// GoldenMemo holds one campaign's golden executions, one per input, under
// the rule every surface shares: input i is resolved exactly once — through
// the campaign's GoldenFn hook when it has one (a process-wide cache, a
// tracer), by ForwardParallel otherwise — and every later request, from any
// shard, phase, run or caller, reads that result. The memo sits in front of
// the hook, so a hook that does not cache still costs one forward pass per
// input. The zero value is ready to use and safe for concurrent use:
// concurrent requests for one input block on a single resolve.
type GoldenMemo struct {
	init  sync.Once
	slots []goldenSlot
}

type goldenSlot struct {
	once sync.Once
	exec *Execution
}

// Golden returns the golden execution of input i of a campaign running net
// under dt over inputs, resolving it on first use: fn(i, compute) when the
// campaign's hook fn is set, compute() otherwise, where compute is the
// fault-free pass split over every core. It splits each layer four ways
// per core: the split is static, and with one part per core the pass waits
// on the slowest (ConvNet's pass is ~1.5× faster on two cores at eight
// parts than at two).
func (m *GoldenMemo) Golden(net *Network, dt numeric.Type, inputs []*tensor.Tensor, i int, fn func(i int, compute func() *Execution) *Execution) *Execution {
	m.init.Do(func() { m.slots = make([]goldenSlot, len(inputs)) })
	s := &m.slots[i]
	s.once.Do(func() {
		compute := func() *Execution { return net.ForwardParallel(dt, inputs[i], 4*runtime.NumCPU()) }
		if fn != nil {
			s.exec = fn(i, compute)
		} else {
			s.exec = compute()
		}
	})
	return s.exec
}
