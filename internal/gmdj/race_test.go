//go:build race

package gmdj

// Under the race detector sync.Pool drops some of what it is handed, so
// tests of what a pool saves are skipped.
func init() { raceEnabled = true }
