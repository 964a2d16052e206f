//go:build race

package netsim

// raceEnabled skips the allocation test: under the race detector
// sync.Pool drops a share of its Puts on purpose, so a recycled request
// is sometimes a fresh one.
const raceEnabled = true
