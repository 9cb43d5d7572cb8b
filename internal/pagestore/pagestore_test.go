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

// pageBody is a ~9 KB body shaped like a served page: a list of anchors.
func pageBody(seed int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<!DOCTYPE html><html><head><title>http://site%d.example/</title></head><body><ul>", seed)
	for i := 0; b.Len() < 9<<10; i++ {
		fmt.Fprintf(&b, `<li><a href="/p/%d.html">http://site%d.example/page%d</a></li>`, (seed*7919+i*104729)%5000, i%154, i)
	}
	b.WriteString("</ul></body></html>")
	return b.Bytes()
}

// TestDeflateMatchesFreshWriter: a pooled writer, Reset between bodies,
// writes the stream a fresh flate.NewWriter(BestSpeed) does whatever it
// compressed before — a small body follows a large one — and Put frames
// exactly the records those fresh streams make.
func TestDeflateMatchesFreshWriter(t *testing.T) {
	big := make([]byte, 200<<10)
	rng := rand.New(rand.NewSource(5))
	for i := range big {
		big[i] = "abcdefgh <>/\n"[rng.Intn(13)]
	}
	bodies := [][]byte{nil, {'x'}, pageBody(1), big, {'y'}, pageBody(2), nil}
	dir := t.TempDir()
	s := open(t, dir, Options{})
	z := deflaters.Get().(*deflater)
	defer z.release()
	var want []byte
	for i, body := range bodies {
		fresh := compressBody(t, body)
		if got, err := z.deflate(body, maxBodyLen); err != nil || !bytes.Equal(got, fresh) {
			t.Fatalf("body %d (%d bytes): pooled stream differs from a fresh writer's (err %v)", i, len(body), err)
		}
		key, meta := fmt.Sprintf("k%d", i), Meta{Status: 200, FetchedAt: float64(i)}
		if err := s.Put(key, meta, body); err != nil {
			t.Fatal(err)
		}
		want = appendRecord(want, key, meta, fresh)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.segPath(s.active.id))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, fresh-writer records %d (err %v)", len(got), len(want), err)
	}
}

// TestPutAllocs: Put of a page-sized body reuses its compressor and its
// record buffer (27 allocations when it built a writer per body).
func TestPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	s := open(t, t.TempDir(), Options{})
	body := pageBody(3)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Put("t1/http://site3.example/", Meta{Status: 200}, body); err != nil {
			t.Fatal(err)
		}
	}); n > 10 {
		t.Fatalf("Put allocates %v times per page", n)
	}
}

// TestConcurrentPutsReadBackIntact: writers sharing the deflater pool
// never hand each other's streams or records to the segment — under -race
// too, where the pool drops and refills at random.
func TestConcurrentPutsReadBackIntact(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxSegmentBytes: 64 << 10})
	body := func(w, i int) []byte {
		return bytes.Repeat(pageBody(w*100+i), 3)[:(w*977+i*1319)%(20<<10)]
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := s.Put(fmt.Sprintf("w%d-k%d", w, i), Meta{Status: 200}, body(w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		for i := 0; i < 30; i++ {
			if _, got, err := s.Get(fmt.Sprintf("w%d-k%d", w, i)); err != nil || !bytes.Equal(got, body(w, i)) {
				t.Fatalf("w%d-k%d reads back %d bytes, wrote %d (err %v)", w, i, len(got), len(body(w, i)), err)
			}
		}
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

// TestWriteFileAtomicFailure: when the rename cannot happen — the target
// is a directory — WriteFileAtomic fails, the target is untouched and no
// temporary file is left in the directory.
func TestWriteFileAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "web.pqs")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	inside := filepath.Join(target, "keep")
	if err := os.WriteFile(inside, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("new bytes")); err == nil {
		t.Fatal("WriteFileAtomic replaced a directory")
	}
	if st, err := os.Stat(target); err != nil || !st.IsDir() {
		t.Fatalf("target is no longer the directory: %v", err)
	}
	if got, err := os.ReadFile(inside); err != nil || string(got) != "kept" {
		t.Fatalf("directory contents changed: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "web.pqs" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v after the failed write, want only the target", names)
	}
}
