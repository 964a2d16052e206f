//go:build race

package nts

// raceEnabled relaxes the client allocation bound: under the race
// detector sync.Pool drops a share of its Puts on purpose, so a
// borrowed scratch is sometimes a fresh one.
const raceEnabled = true
