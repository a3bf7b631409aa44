package network

import (
	"sync"

	"repro/internal/numeric"
)

// GoldenMemo memoizes golden executions per (format, input index) for one
// campaign, so every shard and phase of the campaign reads one forward
// pass instead of running its own. The zero value is ready to use and safe
// for concurrent use: concurrent requests for one coordinate block on a
// single compute. Campaigns wired to a process-wide cache (their GoldenFn
// hook) bypass it.
type GoldenMemo struct {
	mu    sync.Mutex
	slots map[goldenCoord]*goldenSlot
}

type goldenCoord struct {
	dt    numeric.Type
	input int
}

type goldenSlot struct {
	once sync.Once
	exec *Execution
}

// Get returns the memoized execution for (dt, input), running compute on
// first use.
func (m *GoldenMemo) Get(dt numeric.Type, input int, compute func() *Execution) *Execution {
	m.mu.Lock()
	if m.slots == nil {
		m.slots = make(map[goldenCoord]*goldenSlot)
	}
	k := goldenCoord{dt, input}
	s, ok := m.slots[k]
	if !ok {
		s = &goldenSlot{}
		m.slots[k] = s
	}
	m.mu.Unlock()
	s.once.Do(func() { s.exec = compute() })
	return s.exec
}

// Resolver returns one shard's golden lookup for a campaign over format dt:
// input index → execution, resolved through fn (the campaign's GoldenFn
// hook) when it is set and through the memo otherwise, with forward
// running the fault-free pass on a miss. Results are kept in a map private
// to the returned function — which is therefore not safe for concurrent
// use — so a shared cache is consulted once per input per shard rather than
// once per injection.
func (m *GoldenMemo) Resolver(fn func(i int, compute func() *Execution) *Execution, dt numeric.Type, forward func(i int) *Execution) func(i int) *Execution {
	local := make(map[int]*Execution)
	return func(i int) *Execution {
		g, ok := local[i]
		if !ok {
			compute := func() *Execution { return forward(i) }
			if fn != nil {
				g = fn(i, compute)
			} else {
				g = m.Get(dt, i, compute)
			}
			local[i] = g
		}
		return g
	}
}

// Len reports how many distinct goldens the memo holds — each one forward
// pass, run exactly once.
func (m *GoldenMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.slots)
}
