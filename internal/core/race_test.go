//go:build race

package core

// raceEnabled skips allocation assertions on pooled buffers: under the race
// detector sync.Pool drops a random share of Puts, so a pool-backed kernel
// allocates on some runs.
const raceEnabled = true
