package engine

// SetOutputOnlyWalk turns RunSlot's output-only walk on or off, so a test
// can compare a campaign against the exact walk, and returns the restore.
func SetOutputOnlyWalk(on bool) (restore func()) {
	old := outputOnlyWalk
	outputOnlyWalk = on
	return func() { outputOnlyWalk = old }
}
