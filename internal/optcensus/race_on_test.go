//go:build race

package optcensus

const raceEnabled = true
