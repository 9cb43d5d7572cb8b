package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	body := []byte("<html>hello page store</html>")
	meta := Meta{FetchedAt: 12.5, Status: 200}
	if err := s.Put("t1/http://a/", meta, body); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotBody, err := s.Get("t1/http://a/")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatalf("body = %q", gotBody)
	}
	if !s.Has("t1/http://a/") || s.Has("missing") {
		t.Fatal("Has wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetMissing(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestLatestVersionWins(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("k", Meta{Status: 200}, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", Meta{Status: 200}, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	_, body, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "v2" {
		t.Fatalf("body = %q, want v2", body)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", s.Len())
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), Meta{Status: 200, FetchedAt: float64(i)},
			[]byte(strings.Repeat("x", i*10))); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("k00", Meta{Status: 200}, []byte("overwritten"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if s2.Len() != 50 {
		t.Fatalf("Len after reopen = %d", s2.Len())
	}
	_, body, err := s2.Get("k00")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "overwritten" {
		t.Fatalf("reopened latest version = %q", body)
	}
	_, body, err = s2.Get("k31")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 310 {
		t.Fatalf("k31 body length %d", len(body))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 2048})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		body := make([]byte, 500) // incompressible, to exercise rotation
		rng.Read(body)
		if err := s.Put(fmt.Sprintf("k%02d", i), Meta{}, body); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after rotation-sized writes", len(segs))
	}
	// Every key still readable across segments.
	for i := 0; i < 40; i++ {
		if _, _, err := s.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("k%02d: %v", i, err)
		}
	}
	// And after reopen.
	s.Close()
	s2 := open(t, dir, Options{MaxSegmentBytes: 2048})
	if s2.Len() != 40 {
		t.Fatalf("Len after reopen = %d", s2.Len())
	}
}

func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", Meta{Status: 200}, []byte("first"))
	s.Put("b", Meta{Status: 200}, []byte("second"))
	s.Close()

	// Simulate a torn write: chop bytes off the tail of the last segment.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", segs[len(segs)-1]))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, Options{})
	// The torn record ("b") is gone; "a" survives.
	if !s2.Has("a") {
		t.Fatal("intact record lost")
	}
	if s2.Has("b") {
		t.Fatal("torn record resurrected")
	}
	// The store remains writable and the recovered tail is clean.
	if err := s2.Put("c", Meta{Status: 200}, []byte("third")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Get("c"); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptMiddleRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", Meta{}, []byte("aaaa"))
	s.Put("b", Meta{}, []byte("bbbb"))
	s.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seg-%06d.dat", segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[5] ^= 0xff // corrupt inside the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt middle record accepted")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxSegmentBytes: 4096})
	// Many overwrites: lots of dead records.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("k%d", i)
			if err := s.Put(key, Meta{FetchedAt: float64(round)}, bytes.Repeat([]byte("y"), 300)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sizeBefore := dirSize(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	sizeAfter := dirSize(t, dir)
	if sizeAfter >= sizeBefore {
		t.Fatalf("compaction did not shrink: %d -> %d", sizeBefore, sizeAfter)
	}
	if s.Len() != 10 {
		t.Fatalf("Len after compact = %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		meta, _, err := s.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if meta.FetchedAt != 9 {
			t.Fatalf("k%d version = %g, want latest (9)", i, meta.FetchedAt)
		}
	}
	// Still writable after compaction, and reopenable.
	if err := s.Put("new", Meta{}, []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := open(t, dir, Options{})
	if s2.Len() != 11 {
		t.Fatalf("Len after compact+reopen = %d", s2.Len())
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestKeysAndPrefix(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, k := range []string{"t2/b", "t1/a", "t1/b", "t2/a"} {
		if err := s.Put(k, Meta{}, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	want := []string{"t1/a", "t1/b", "t2/a", "t2/b"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v", keys)
		}
	}
	t1 := s.KeysWithPrefix("t1/")
	if len(t1) != 2 || t1[0] != "t1/a" || t1[1] != "t1/b" {
		t.Fatalf("prefix keys = %v", t1)
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Put("k", Meta{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatal("Put on closed store accepted")
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatal("Get on closed store accepted")
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatal("Sync on closed store accepted")
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatal("Compact on closed store accepted")
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{MaxSegmentBytes: 10}); err == nil {
		t.Fatal("tiny segment size accepted")
	}
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("", Meta{}, nil); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(strings.Repeat("k", MaxKeyLen+1), Meta{}, nil); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxSegmentBytes: 8192})
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(key, Meta{Status: 200}, []byte(key+"-body")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			_, body, err := s.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != key+"-body" {
				t.Fatalf("interleaved record damaged: %q", body)
			}
		}
	}
}

func TestEmptyBody(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Put("k", Meta{Status: 404}, nil); err != nil {
		t.Fatal(err)
	}
	meta, body, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Status != 404 || len(body) != 0 {
		t.Fatalf("empty body round trip: %+v %q", meta, body)
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := bytes.Repeat([]byte("the quick brown fox "), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), Meta{Status: 200}, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := bytes.Repeat([]byte("page body "), 200)
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), Meta{}, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(fmt.Sprintf("k%d", i%100)); err != nil {
			b.Fatal(err)
		}
	}
}
