//go:build race

package main

// raceEnabled skips TestE2E: it only execs binaries, and the cases that
// want the race detector race-build the server they launch.
const raceEnabled = true
