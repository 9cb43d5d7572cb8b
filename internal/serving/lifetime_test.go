//go:build go1.24

package serving

import (
	"runtime"
	"testing"
	"weak"
)

// TestGenerationKeepsNoPredecessor: a generation reuses the records of
// the one before it while it is built, and keeps nothing of it once
// built, so a long-running server holds one generation's index, not a
// chain of every index it ever served. After two refreshes, generation
// 1's index is garbage.
func TestGenerationKeepsNoPredecessor(t *testing.T) {
	svc, err := New(fixtureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	first := weak.Make(svc.Generation().ix)
	for i := 0; i < 2; i++ {
		if _, err := svc.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections: the index embeds its analysers' sync.Pool, which
	// the runtime's pool list holds until the second collection after
	// its last use.
	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("generation 1's index is still reachable after two refreshes")
	}
	runtime.KeepAlive(svc) // the live generation is the one that must not hold it
}
