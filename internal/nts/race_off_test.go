//go:build !race

package nts

const raceEnabled = false
