//go:build race

package pagestore

// raceEnabled lets a test that must touch tens of MiB skip under the
// race detector, whose shadow memory multiplies that several times.
const raceEnabled = true
