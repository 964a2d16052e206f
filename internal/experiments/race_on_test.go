//go:build race

package experiments

// raceEnabled skips what the race detector makes meaningless (the
// allocation budget: its bookkeeping allocates and sync.Pool drops a
// share of its Puts) or merely slow (the eight-seed fixture).
const raceEnabled = true
