//go:build race

package population

// raceEnabled gates the heaviest population tests: under the race
// detector the million-client warm-up round and the two largest
// scenarios (herd, falseticker) cost an order of magnitude more, so
// only the smaller replay rows — nat and the two chaos promotions —
// stay on.
const raceEnabled = true
