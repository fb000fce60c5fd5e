//go:build race

package core

// The race detector's instrumentation allocates, and its sync.Pool drops
// items at random, so allocation counts are not the program's.
func init() { raceEnabled = true }
