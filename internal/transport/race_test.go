//go:build race

package transport

// Under the race detector sync.Pool drops a quarter of what is put back, so
// allocation counts through the pooled frame buffers are not stable.
func init() { raceEnabled = true }
