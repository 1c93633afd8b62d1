//go:build race

package mux

// allocBoundKBPerMiB bounds TestStreamAllocationBounded. Under the race
// detector sync.Pool drops a random quarter of its Puts on purpose, so
// about one 64 KiB DATA buffer in four is freshly allocated: ~256 KB per
// MiB carried, still a quarter of what a buffer per frame costs.
const allocBoundKBPerMiB = 512
