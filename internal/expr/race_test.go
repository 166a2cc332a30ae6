//go:build race

package expr

// Under the race detector sync.Pool drops some of what it is handed, so
// Filter's pooled gather columns are allocated again now and then.
func init() { raceEnabled = true }
