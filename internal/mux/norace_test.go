//go:build !race

package mux

// allocBoundKBPerMiB bounds TestStreamAllocationBounded.
const allocBoundKBPerMiB = 16
