//go:build !race

package optcensus

const raceEnabled = false
