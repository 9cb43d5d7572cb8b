// Package bitset provides a dense, growable bitset used throughout the
// simulator for user-awareness sets and visited-page sets.
//
// The zero value of Set is an empty set ready to use. All operations are
// O(1) per bit or O(words) per set, with no allocations on the hot paths
// once the backing array has grown to its final size.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a dense bitset over non-negative integer indices.
//
// Set is not safe for concurrent mutation; guard it externally or use one
// set per goroutine.
type Set struct {
	words []uint64
}

// New returns a set pre-sized to hold indices in [0, n).
// Indices beyond n may still be set later; the backing array grows on demand.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// grow ensures the set can hold bit i.
func (s *Set) grow(i int) {
	w := i/wordBits + 1
	if w <= len(s.words) {
		return
	}
	if w <= cap(s.words) {
		s.words = s.words[:w]
		return
	}
	nw := make([]uint64, w, max(w, 2*cap(s.words)))
	copy(nw, s.words)
	s.words = nw
}

// Set sets bit i. It panics if i is negative.
func (s *Set) Set(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	s.grow(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. Clearing a bit beyond the current size is a no-op.
func (s *Set) Clear(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: negative index %d", i))
	}
	w := i / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) % wordBits)
	}
}

// Test reports whether bit i is set. Out-of-range indices report false.
func (s *Set) Test(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset clears every bit while retaining the backing array.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}
