//go:build race

package fft

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a share of its Puts on purpose: pooled paths then
// allocate, so allocation pins do not hold.
const raceEnabled = true
