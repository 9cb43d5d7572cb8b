// Package pagestore is the crawl document repository: a log-structured,
// segmented, append-only store for fetched page bodies. The paper's
// crawler kept 4.6–5 million documents per snapshot (§8.1); this store
// provides the equivalent substrate at laptop scale, with the properties
// a real crawl pipeline needs:
//
//   - append-only segment files with per-record CRC32, so a crash mid-write
//     loses at most the torn tail record (recovered and truncated on open);
//   - an in-memory key index rebuilt on open (latest version of a key
//     wins, enabling re-crawls of the same URL);
//   - self-indexing sealed segments: rotation appends a checksummed
//     footer (key→offset fence pointers, record count and data length)
//     so Open indexes sealed segments in O(index) without reading record
//     bodies — only the unsealed active tail is scanned. A missing,
//     truncated, corrupt or older-version footer falls back to the full
//     record scan and yields an identical index;
//   - flate compression of bodies.
//
// Keys are arbitrary strings; the crawl pipeline uses
// "<snapshotLabel>/<canonicalURL>" so one repository holds every crawl.
// Each crawl writes under a fresh label and never rewrites a page, so
// the store has no dead records to reclaim and does not compact.
package pagestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pagequality/internal/graph"
	"pagequality/internal/par"
)

// Meta is the per-document metadata stored alongside the body.
type Meta struct {
	// FetchedAt is the crawl time (simulation weeks or unix seconds —
	// the store does not interpret it).
	FetchedAt float64
	// Status is the HTTP status the document was fetched with.
	Status int
}

// Store is a page repository rooted at a directory. It is safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	active segWriter // the unsealed segment Puts append to
	maxSeg int64     // rotation threshold
	index  map[string]location
	closed bool

	// How Open rebuilt the index, in segments; tests use the counts to
	// pin the O(index) cold-start contract.
	footerSegments  int // indexed from a valid footer, no record reads
	scannedSegments int // indexed by replaying records
}

// location points at one record.
type location struct {
	seg    int
	offset int64
}

// Options tunes Open.
type Options struct {
	// MaxSegmentBytes triggers rotation to a new segment file once the
	// active one exceeds this size (default 64 MiB).
	MaxSegmentBytes int64
}

// Errors returned by the store.
var (
	ErrClosed   = errors.New("pagestore: store closed")
	ErrNotFound = errors.New("pagestore: key not found")
	ErrCorrupt  = errors.New("pagestore: corrupt record")
)

const (
	defaultMaxSeg = 64 << 20
	maxBodyLen    = 64 << 20
)

// MaxLabelLen is the longest crawl label in a crawl archive's
// "<label>/<url>" keys, and MaxKeyLen the longest key Put accepts: room
// for such a label in front of the longest URL a link graph holds, so
// every page a crawl keeps can be archived.
const (
	MaxLabelLen = 255
	MaxKeyLen   = MaxLabelLen + 1 + graph.MaxURLLen // 1 for the slash
)

// Open opens (or creates) a repository in dir, rebuilding the key index
// from segment footers where present and by scanning records otherwise.
// A torn tail record (or interrupted footer) in the newest segment is
// truncated away; corruption anywhere else is reported as an error. If
// the newest segment is sealed, appends go to a fresh segment — sealed
// segments are immutable.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes == 0 {
		opts.MaxSegmentBytes = defaultMaxSeg
	}
	if opts.MaxSegmentBytes < 1024 {
		return nil, fmt.Errorf("pagestore: MaxSegmentBytes %d too small", opts.MaxSegmentBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: mkdir: %w", err)
	}
	s := &Store{
		dir:    dir,
		maxSeg: opts.MaxSegmentBytes,
		index:  make(map[string]location),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	tail, err := s.rebuildIndex(segs, 0)
	if err != nil {
		return nil, err
	}
	// Appends go to the last existing segment if it is still unsealed,
	// otherwise to a fresh one after the sealed tail.
	id := 1
	if n := len(segs); n > 0 {
		id = segs[n-1]
		if tail == nil {
			id++
		}
	}
	if s.active, err = s.openSegment(id, tail == nil); err != nil {
		return nil, err
	}
	if tail != nil {
		st, err := s.active.f.Stat()
		if err != nil {
			s.active.f.Close()
			return nil, err
		}
		s.active.size, s.active.entries = st.Size(), tail
	}
	return s, nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.dat", id))
}

// segWriter is the store's active segment: the one unsealed segment,
// open for append. Every record and footer the store writes goes
// through it.
type segWriter struct {
	f       *os.File
	id      int
	size    int64            // bytes written so far
	entries map[string]int64 // latest offset per key (footer material)
}

// openSegment opens segment id for append. A fresh segment must not
// exist yet (O_EXCL) and starts empty; an existing one is the caller's
// to size.
func (s *Store) openSegment(id int, fresh bool) (segWriter, error) {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if fresh {
		flag |= os.O_EXCL
	}
	f, err := os.OpenFile(s.segPath(id), flag, 0o644)
	if err != nil {
		return segWriter{}, fmt.Errorf("pagestore: open segment %d: %w", id, err)
	}
	return segWriter{f: f, id: id, entries: make(map[string]int64)}, nil
}

// rollover seals w — syncs its records, then appends and syncs the
// footer that indexes them, so a footer never claims records the disk
// may not hold — closes it, and reopens w on a fresh segment w.id+1.
// A sealed segment is immutable: Open indexes it from the footer. On a
// failure w keeps its id; its file may already be closed.
func (s *Store) rollover(w *segWriter) error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: sync before seal: %w", err)
	}
	foot := encodeFooter(w.entries, w.size)
	if _, err := w.f.Write(foot); err != nil {
		return fmt.Errorf("pagestore: write footer: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: sync footer: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("pagestore: close sealed segment: %w", err)
	}
	next, err := s.openSegment(w.id+1, true)
	if err != nil {
		return err
	}
	*w = next
	return nil
}

// listSegments returns the numeric ids of existing segments, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pagestore: readdir: %w", err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".dat") {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, "seg-%06d.dat", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// Record layout (little-endian):
//
//	magic    byte 0xA7
//	keyLen   uvarint
//	key      bytes
//	fetched  float64 bits
//	status   uvarint
//	bodyLen  uvarint          (compressed length)
//	body     flate bytes
//	crc32    uint32           (over everything after the magic)
const recMagic = 0xA7

// appendRecord encodes a record into buf.
func appendRecord(buf []byte, key string, meta Meta, compressed []byte) []byte {
	buf = append(buf, recMagic)
	payloadStart := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta.FetchedAt))
	buf = binary.AppendUvarint(buf, uint64(meta.Status))
	buf = binary.AppendUvarint(buf, uint64(len(compressed)))
	buf = append(buf, compressed...)
	crc := crc32.ChecksumIEEE(buf[payloadStart:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
}

// segEntry is one record discovered while indexing a segment.
type segEntry struct {
	key string
	off int64
}

// segLoad is the result of indexing one segment on Open.
type segLoad struct {
	entries []segEntry // replay order (scan) or key order (footer)
	sealed  bool       // indexed from a valid footer
}

// rebuildIndex indexes the segments (fanning the per-file loads out over
// workers; Open passes 0, GOMAXPROCS) and merges the discovered records
// into the key index in segment order, so the latest version of a key
// wins exactly as a sequential replay would decide. Sealed segments are
// read from their footers without touching record bodies; unsealed (or
// corrupt-footer) segments fall back to a record scan. Errors are reported for the
// earliest failing segment regardless of which worker hit it first.
// Returns the newest segment's latest offset per key (its footer
// material) when it is unsealed, nil otherwise.
func (s *Store) rebuildIndex(segs []int, workers int) (tail map[string]int64, err error) {
	loads := make([]segLoad, len(segs))
	err = par.DoErr(len(segs), workers, func(i int) error {
		var err error
		loads[i], err = s.loadSegmentIndex(segs[i], i == len(segs)-1)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, id := range segs {
		for _, e := range loads[i].entries {
			s.index[e.key] = location{seg: id, offset: e.off}
		}
		if loads[i].sealed {
			s.footerSegments++
		} else {
			s.scannedSegments++
		}
	}
	if n := len(segs); n > 0 && !loads[n-1].sealed {
		tail = make(map[string]int64, len(loads[n-1].entries))
		for _, e := range loads[n-1].entries {
			tail[e.key] = e.off
		}
	}
	return tail, nil
}

// loadSegmentIndex indexes one segment: footer fast path when the seal
// validates, record scan otherwise.
func (s *Store) loadSegmentIndex(id int, last bool) (segLoad, error) {
	path := s.segPath(id)
	f, err := os.Open(path)
	if err != nil {
		return segLoad{}, fmt.Errorf("pagestore: open segment %d: %w", id, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return segLoad{}, fmt.Errorf("pagestore: stat segment %d: %w", id, err)
	}
	ft, evidence, err := readFooter(f, st.Size())
	f.Close()
	if err != nil {
		return segLoad{}, err
	}
	if ft != nil {
		return segLoad{entries: ft.entries, sealed: true}, nil
	}
	ents, err := s.scanSegmentFile(id, last, evidence)
	if err != nil {
		return segLoad{}, err
	}
	return segLoad{entries: ents}, nil
}

// scanSegmentFile replays one segment, returning its records in file
// order — the fallback when no valid footer exists. The scan ends at a
// footMagic byte (a footer whose checksum or trailer failed validation,
// or a healthy one an earlier corruption made us scan), at a record that
// does not parse when footerEvidence (a trailer at EOF that failed
// validation) marks it seal debris, or at a torn tail write on the
// newest segment; any other parse failure fails the open. On the newest
// segment everything past the last record is then cut away, so appends
// resume after it.
func (s *Store) scanSegmentFile(id int, last, footerEvidence bool) ([]segEntry, error) {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagestore: read segment %d: %w", id, err)
	}
	var ents []segEntry
	off := int64(0)
	for off < int64(len(data)) && data[off] != footMagic {
		recLen, key, _, _, err := parseRecordAt(data, off)
		if err != nil {
			if footerEvidence || last && errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return nil, fmt.Errorf("pagestore: segment %d offset %d: %w", id, off, err)
		}
		ents = append(ents, segEntry{key: string(key), off: off})
		off += recLen
	}
	if last && off < int64(len(data)) {
		if err := os.Truncate(path, off); err != nil {
			return nil, fmt.Errorf("pagestore: truncate segment %d: %w", id, err)
		}
	}
	return ents, nil
}

// parseRecordAt checks the record starting at data[off] — structure,
// length limits and CRC — and returns its total length and its fields as
// views into data; nothing is copied. It is the one check of a record:
// the open-time scan, Get and every live read make it. An offset at or
// past the end, or structural damage inside the buffer, is ErrCorrupt;
// running past the end is io.ErrUnexpectedEOF (a torn write).
func parseRecordAt(data []byte, off int64) (total int64, key []byte, meta Meta, compressed []byte, err error) {
	if off >= int64(len(data)) {
		return 0, nil, meta, nil, fmt.Errorf("%w: offset beyond segment", ErrCorrupt)
	}
	b := data[off:]
	if b[0] != recMagic {
		return 0, nil, meta, nil, fmt.Errorf("%w: magic 0x%02x", ErrCorrupt, b[0])
	}
	p := 1
	// uvarint reads the next varint field; ok is false when it runs past
	// the end of the buffer; overlong marks a padded one (last byte 0).
	overlong := false
	uvarint := func() (v uint64, ok bool) {
		v, n := binary.Uvarint(b[p:])
		p += n
		overlong = overlong || n > 1 && b[p-1] == 0
		return v, n > 0
	}
	klen, ok := uvarint()
	if !ok {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
	if klen > MaxKeyLen {
		return 0, nil, meta, nil, fmt.Errorf("%w: key length %d", ErrCorrupt, klen)
	}
	if uint64(len(b)-p) < klen+8 {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
	key = b[p : p+int(klen)]
	p += int(klen)
	meta.FetchedAt = math.Float64frombits(binary.LittleEndian.Uint64(b[p:]))
	p += 8
	status, ok := uvarint()
	if !ok {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
	meta.Status = int(status)
	blen, ok := uvarint()
	if !ok {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
	if blen > maxBodyLen {
		return 0, nil, meta, nil, fmt.Errorf("%w: body length %d", ErrCorrupt, blen)
	}
	if uint64(len(b)-p) < blen+4 {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
	compressed = b[p : p+int(blen)]
	p += int(blen)
	if overlong {
		return 0, nil, meta, nil, fmt.Errorf("%w: overlong varint", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(b[1:p]) != binary.LittleEndian.Uint32(b[p:]) {
		return 0, nil, meta, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return int64(p) + 4, key, meta, compressed, nil
}

// deflater is the reusable state of one compression, the write side of
// inflater: a BestSpeed flate writer is ~1.2 MB to build, so writers are
// Reset (documented equivalent to NewWriter, so the stream is the same
// bytes) rather than rebuilt, and the record is framed in rec.
type deflater struct {
	fw  *flate.Writer // writes to buf
	buf bytes.Buffer
	rec []byte
}

var deflaters = sync.Pool{New: func() any {
	z := new(deflater)
	z.fw, _ = flate.NewWriter(&z.buf, flate.BestSpeed) //pqlint:allow droppederr NewWriter fails only on an invalid level
	return z
}}

// release returns z to the pool without a buffer over maxPooledScratch.
func (z *deflater) release() {
	if z.buf.Cap() > maxPooledScratch {
		z.buf = bytes.Buffer{}
	}
	if cap(z.rec) > maxPooledScratch {
		z.rec = nil
	}
	deflaters.Put(z)
}

// deflate compresses one body for a record into z.buf and returns a view
// of it, valid until z's next use. A body longer than limit on either
// side of the compressor is refused: the read path rejects such a record
// as corrupt, so writing it would lose the document.
func (z *deflater) deflate(body []byte, limit int) ([]byte, error) {
	if len(body) > limit {
		return nil, fmt.Errorf("pagestore: body of %d bytes exceeds the %d-byte limit", len(body), limit)
	}
	z.buf.Reset()
	z.fw.Reset(&z.buf)
	if _, err := z.fw.Write(body); err != nil {
		return nil, fmt.Errorf("pagestore: compress: %w", err)
	}
	if err := z.fw.Close(); err != nil {
		return nil, fmt.Errorf("pagestore: compress close: %w", err)
	}
	if z.buf.Len() > limit {
		return nil, fmt.Errorf("pagestore: body compresses to %d bytes, over the %d-byte limit", z.buf.Len(), limit)
	}
	return z.buf.Bytes(), nil
}

// Put stores (or replaces) the body under key.
func (s *Store) Put(key string, meta Meta, body []byte) error {
	if key == "" || len(key) > MaxKeyLen {
		return fmt.Errorf("pagestore: invalid key length %d", len(key))
	}
	z := deflaters.Get().(*deflater)
	defer z.release()
	compressed, err := z.deflate(body, maxBodyLen)
	if err != nil {
		return err
	}
	z.rec = appendRecord(z.rec[:0], key, meta, compressed)
	rec := z.rec

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// A record that would push a non-empty segment past the rotation
	// threshold goes to a fresh one.
	w := &s.active
	if w.size > 0 && w.size+int64(len(rec)) > s.maxSeg {
		if err := s.rollover(w); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("pagestore: append: %w", err)
	}
	s.index[key] = location{seg: w.id, offset: w.size}
	w.entries[key] = w.size
	w.size += int64(len(rec))
	return nil
}

// Get returns the latest body stored under key.
func (s *Store) Get(key string) (Meta, []byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Meta{}, nil, ErrClosed
	}
	loc, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	data, err := os.ReadFile(s.segPath(loc.seg))
	if err != nil {
		return Meta{}, nil, fmt.Errorf("pagestore: read segment: %w", err)
	}
	_, _, meta, compressed, err := parseRecordAt(data, loc.offset)
	if err != nil {
		return Meta{}, nil, err
	}
	body, err := inflate(compressed, maxBodyLen)
	return meta, body, err
}

// inflater is the reusable state of one decompression: a flate reader
// is ~40 KB to build, so readers are reset (flate.Resetter) rather than
// rebuilt, and a body is inflated into buf first so the caller gets one
// exact-size allocation instead of io.ReadAll's doubling.
type inflater struct {
	src bytes.Reader
	fr  io.Reader // flate reader over src
	buf []byte
}

var inflaters = sync.Pool{New: func() any {
	return &inflater{fr: flate.NewReader(nil), buf: make([]byte, 0, 32<<10)}
}}

// maxPooledScratch bounds the buffers pooled inflaters and deflaters
// keep, so one huge body does not stay pinned for the process's life.
const maxPooledScratch = 1 << 20

// inflate decompresses one record body into a fresh exact-size slice.
// A stream that does not decode, or that inflates past limit bytes (Put
// refuses such a body), is ErrCorrupt.
func inflate(compressed []byte, limit int) ([]byte, error) {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.src.Reset(compressed)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	buf := z.buf[:0]
	for {
		if len(buf) == cap(buf) {
			// Double, but never past the one byte beyond limit that
			// proves the stream too long.
			buf = append(make([]byte, 0, min(2*cap(buf), limit+1)), buf...)
		}
		n, err := z.fr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, fmt.Errorf("%w: body inflates past %d bytes", ErrCorrupt, limit)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
		}
	}
	if cap(buf) <= maxPooledScratch {
		z.buf = buf
	}
	return append(make([]byte, 0, len(buf)), buf...), nil
}

// Record is one live document streamed out of the store — the unit the
// corpus engine's per-segment mappers consume.
type Record struct {
	Key  string
	Meta Meta
	Body []byte
}

// StoredRecord is one live record as its segment holds it, checksum
// verified: its key, its metadata and its body's flate stream. Flate is a
// view into the segment as read, so holding it holds that read.
type StoredRecord struct {
	Key   string
	Meta  Meta
	Flate []byte
}

// Inflate decompresses the record's body into a fresh slice.
func (r StoredRecord) Inflate() ([]byte, error) {
	body, err := inflate(r.Flate, maxBodyLen)
	if err != nil {
		err = fmt.Errorf("pagestore: %q: %w", r.Key, err)
	}
	return body, err
}

// SegmentIDs returns the distinct segments currently holding at least
// one live record, ascending. Together with ReadLive it partitions the
// live record set: every live record is homed in exactly one segment.
func (s *Store) SegmentIDs() []int {
	s.mu.Lock()
	seen := make(map[int]struct{})
	for _, loc := range s.index {
		seen[loc.seg] = struct{}{}
	}
	s.mu.Unlock()
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ReadLive is ReadStoredPrefix(seg, ""), each body inflated: peak memory
// is the segment plus its decompressed live bodies.
func (s *Store) ReadLive(seg int) ([]Record, error) {
	stored, err := s.ReadStoredPrefix(seg, "")
	if len(stored) == 0 {
		return nil, err
	}
	recs := make([]Record, len(stored))
	for i, r := range stored {
		body, err := r.Inflate()
		if err != nil {
			return nil, err
		}
		recs[i] = Record{Key: r.Key, Meta: r.Meta, Body: body}
	}
	return recs, nil
}

// ReadStoredPrefix returns the live records homed in segment seg whose
// keys start with prefix, in record (offset) order, each checked as Get
// checks it (parseRecordAt) and its body left compressed. The filter
// runs on the in-memory key index before any I/O: a segment holding no
// such key is not opened, and a record outside the prefix is not checked.
func (s *Store) ReadStoredPrefix(seg int, prefix string) ([]StoredRecord, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var ents []segEntry
	for k, loc := range s.index {
		if loc.seg == seg && strings.HasPrefix(k, prefix) {
			ents = append(ents, segEntry{key: k, off: loc.offset})
		}
	}
	s.mu.Unlock()
	if len(ents) == 0 {
		return nil, nil
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a].off < ents[b].off })
	data, err := os.ReadFile(s.segPath(seg))
	if err != nil {
		return nil, fmt.Errorf("pagestore: read segment %d: %w", seg, err)
	}
	recs := make([]StoredRecord, len(ents))
	for i, e := range ents {
		_, _, meta, compressed, err := parseRecordAt(data, e.off)
		if err != nil {
			return nil, fmt.Errorf("pagestore: segment %d offset %d: %w", seg, e.off, err)
		}
		recs[i] = StoredRecord{Key: e.key, Meta: meta, Flate: compressed}
	}
	return recs, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.active.f.Sync()
}

// Close syncs and closes the store. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.active.f.Sync(); err != nil {
		s.active.f.Close()
		return err
	}
	return s.active.f.Close()
}
