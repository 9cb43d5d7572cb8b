//go:build race

package search

// raceEnabled lets an allocation pin skip under the race detector, where
// sync.Pool drops a share of what is put back and the per-query scratch
// is reallocated at random.
const raceEnabled = true
