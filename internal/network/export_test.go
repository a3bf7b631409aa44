package network

// ChainBytes reports the golden chain bytes accounted to e, for the
// external tests that walk real models (package models imports this one).
func ChainBytes(e *Execution) int64 {
	if g := e.chains.Load(); g != nil {
		return g.Bytes()
	}
	return 0
}
