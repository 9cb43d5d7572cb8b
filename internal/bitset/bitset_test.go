package bitset

import (
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Test(5) {
		t.Fatal("empty set reports bit 5 set")
	}
	s.Set(5)
	if !s.Test(5) {
		t.Fatal("bit 5 not set after Set")
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestSetClearTest(t *testing.T) {
	s := New(128)
	for _, i := range []int{0, 1, 63, 64, 65, 127} {
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("Test(64) = true after Clear")
	}
	if got := s.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
}

func TestClearBeyondSizeNoop(t *testing.T) {
	s := New(8)
	s.Clear(1000) // must not panic or grow
	if s.Test(1000) {
		t.Fatal("bit 1000 set after Clear")
	}
}

func TestNegativeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	var s Set
	s.Set(-1)
}

func TestTestNegativeIsFalse(t *testing.T) {
	var s Set
	if s.Test(-1) {
		t.Fatal("Test(-1) = true")
	}
}

func TestGrowth(t *testing.T) {
	var s Set
	const big = 100_000
	s.Set(big)
	if !s.Test(big) {
		t.Fatalf("bit %d not set after growth", big)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestReset(t *testing.T) {
	s := New(256)
	for i := 0; i < 256; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if got := s.Count(); got != 0 {
		t.Fatalf("Count after Reset = %d", got)
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(256)
	want := []int{0, 5, 64, 65, 200}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	n := 0
	s.ForEach(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d bits, want 2", n)
	}
}

// Property: Count equals the number of distinct indices inserted.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(idx []uint16) bool {
		var s Set
		seen := map[int]bool{}
		for _, v := range idx {
			i := int(v)
			s.Set(i)
			seen[i] = true
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach enumerates exactly the inserted set, in ascending order.
func TestQuickForEachMatchesMap(t *testing.T) {
	f := func(idx []uint16) bool {
		var s Set
		seen := map[int]bool{}
		for _, v := range idx {
			s.Set(int(v))
			seen[int(v)] = true
		}
		prev := -1
		ok := true
		s.ForEach(func(i int) bool {
			if !seen[i] || i <= prev {
				ok = false
				return false
			}
			delete(seen, i)
			prev = i
			return true
		})
		return ok && len(seen) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 7 {
		s.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Count() == 0 {
			b.Fatal("empty")
		}
	}
}
