package network

// ChainBytes reports the golden chain bytes accounted to e, for the
// external tests that walk real models (package models imports this one).
func ChainBytes(e *Execution) int64 {
	if g := e.chains.Load(); g != nil {
		return g.Bytes()
	}
	return 0
}

// setDenseCutoff moves the changed-set density at which delta propagation
// falls back to dense re-execution (non-positive: the layers package
// default), so tests can force either path on every step.
func (n *Network) setDenseCutoff(v float64) { n.denseCutoff = max(v, 0) }
