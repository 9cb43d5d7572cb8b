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
//   - self-indexing sealed segments: rotation and compaction append a
//     checksummed footer (key→offset fence pointers, a bloom filter,
//     record count and data length) so Open indexes sealed segments in
//     O(index) without reading record bodies — only the unsealed active
//     tail is scanned. A missing, truncated or corrupt footer falls back
//     to the full record scan and yields an identical index;
//   - flate compression of bodies;
//   - compaction that streams live records segment by segment (peak
//     memory one source segment, not the store) and drops superseded
//     versions.
//
// Keys are arbitrary strings; the crawl pipeline uses
// "<snapshotLabel>/<canonicalURL>" so one repository holds every crawl.
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
	mu         sync.Mutex
	dir        string
	active     *os.File         // current segment, opened for append
	actID      int              // numeric id of the active segment
	actLen     int64            // current size of the active segment
	actEntries map[string]int64 // latest offset per key in the active segment (footer material)
	maxSeg     int64            // rotation threshold
	index      map[string]location
	blooms     map[int]segBloom // per sealed segment, from its footer
	closed     bool

	// openStats records how the index was rebuilt; tests use it to pin
	// the O(index) cold-start contract.
	openStats struct {
		footerSegments  int // indexed from a valid footer, no record reads
		scannedSegments int // indexed by replaying records
	}
}

// segBloom is a sealed segment's bloom filter, kept in memory for
// cross-segment membership prefilters (e.g. the multi-store merge).
type segBloom struct {
	bits []byte
	k    int
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
		dir:        dir,
		maxSeg:     opts.MaxSegmentBytes,
		index:      make(map[string]location),
		actEntries: make(map[string]int64),
		blooms:     make(map[int]segBloom),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	lastSealed, err := s.rebuildIndex(segs, 0)
	if err != nil {
		return nil, err
	}
	// Open (or create) the active segment: the last existing one if it is
	// still appendable, otherwise a fresh one after the sealed tail.
	s.actID = 1
	if len(segs) > 0 {
		s.actID = segs[len(segs)-1]
		if lastSealed {
			s.actID++
			s.actEntries = make(map[string]int64)
		}
	}
	f, err := os.OpenFile(s.segPath(s.actID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open active segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.active = f
	s.actLen = st.Size()
	return s, nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.dat", id))
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
	bloom   segBloom   // only when sealed
}

// rebuildIndex indexes the segments (fanning the per-file loads out over
// workers; Open passes 0, GOMAXPROCS) and merges the discovered records
// into the key index in segment order, so the latest version of a key
// wins exactly as a sequential replay would decide. Sealed segments are
// read from their footers without touching record bodies; unsealed (or
// corrupt-footer) segments fall back to a record scan. Errors are reported for the
// earliest failing segment regardless of which worker hit it first.
// Returns whether the newest segment is sealed.
func (s *Store) rebuildIndex(segs []int, workers int) (lastSealed bool, err error) {
	loads := make([]segLoad, len(segs))
	err = par.DoErr(len(segs), workers, func(i int) error {
		var err error
		loads[i], err = s.loadSegmentIndex(segs[i], i == len(segs)-1)
		return err
	})
	if err != nil {
		return false, err
	}
	for i, id := range segs {
		for _, e := range loads[i].entries {
			s.index[e.key] = location{seg: id, offset: e.off}
		}
		if loads[i].sealed {
			s.blooms[id] = loads[i].bloom
			s.openStats.footerSegments++
		} else {
			s.openStats.scannedSegments++
		}
	}
	if n := len(segs); n > 0 {
		lastSealed = loads[n-1].sealed
		if !lastSealed {
			// The newest segment stays active: seed its footer material
			// so a later rotation can seal it.
			for _, e := range loads[n-1].entries {
				s.actEntries[e.key] = e.off
			}
		}
	}
	return lastSealed, nil
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
		return segLoad{entries: ft.entries, sealed: true, bloom: segBloom{bits: ft.bloom, k: ft.bloomK}}, nil
	}
	ents, err := s.scanSegmentFile(id, last, evidence)
	if err != nil {
		return segLoad{}, err
	}
	return segLoad{entries: ents}, nil
}

// scanSegmentFile replays one segment, returning its records in file
// order — the fallback when no valid footer exists. Recovery rules at a
// parse failure, in order:
//
//   - the failing byte is footMagic: a footer starts here (its checksum
//     or trailer failed validation, or an earlier corruption made us
//     scan a healthy sealed segment); index what was scanned. For the
//     newest segment the debris is truncated so appends can resume.
//   - footerEvidence (a footer trailer exists at EOF but failed
//     validation): the unparseable tail is seal debris, same handling.
//   - newest segment, clean end-of-buffer overrun: a torn tail write;
//     truncate it away.
//   - anything else is corruption and fails the open.
func (s *Store) scanSegmentFile(id int, last, footerEvidence bool) ([]segEntry, error) {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pagestore: read segment %d: %w", id, err)
	}
	var ents []segEntry
	off := int64(0)
	for off < int64(len(data)) {
		if data[off] == footMagic {
			if last {
				if terr := os.Truncate(path, off); terr != nil {
					return nil, fmt.Errorf("pagestore: truncate footer debris: %w", terr)
				}
			}
			return ents, nil
		}
		recLen, key, _, _, err := parseRecordAt(data, off)
		if err != nil {
			if footerEvidence {
				if last {
					if terr := os.Truncate(path, off); terr != nil {
						return nil, fmt.Errorf("pagestore: truncate footer debris: %w", terr)
					}
				}
				return ents, nil
			}
			if last && errors.Is(err, io.ErrUnexpectedEOF) {
				// crash recovery: drop the torn tail
				if terr := os.Truncate(path, off); terr != nil {
					return nil, fmt.Errorf("pagestore: truncate torn tail: %w", terr)
				}
				return ents, nil
			}
			return nil, fmt.Errorf("pagestore: segment %d offset %d: %w", id, off, err)
		}
		ents = append(ents, segEntry{key: string(key), off: off})
		off += recLen
	}
	return ents, nil
}

// parseRecordAt checks the record starting at data[off] — structure,
// length limits and CRC — and returns its total length and its fields as
// views into data; nothing is copied. Structural damage inside the
// buffer is ErrCorrupt; running past the end is io.ErrUnexpectedEOF (a
// torn write).
func parseRecordAt(data []byte, off int64) (total int64, key []byte, meta Meta, compressed []byte, err error) {
	b := data[off:]
	if len(b) == 0 {
		return 0, nil, meta, nil, io.ErrUnexpectedEOF
	}
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
	if s.actLen > 0 && s.actLen+int64(len(rec)) > s.maxSeg {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	offset := s.actLen
	if _, err := s.active.Write(rec); err != nil {
		return fmt.Errorf("pagestore: append: %w", err)
	}
	s.actLen += int64(len(rec))
	s.index[key] = location{seg: s.actID, offset: offset}
	s.actEntries[key] = offset
	return nil
}

// rotateLocked seals the active segment — appends its footer so future
// Opens index it without a scan — and starts a fresh one.
func (s *Store) rotateLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("pagestore: sync before rotate: %w", err)
	}
	bloom, err := sealFile(s.active, s.actEntries, s.actLen)
	if err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("pagestore: close before rotate: %w", err)
	}
	s.blooms[s.actID] = bloom
	s.actID++
	f, err := os.OpenFile(s.segPath(s.actID), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: rotate: %w", err)
	}
	s.active = f
	s.actLen = 0
	s.actEntries = make(map[string]int64)
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
	return s.readAt(loc)
}

func (s *Store) readAt(loc location) (Meta, []byte, error) {
	data, err := os.ReadFile(s.segPath(loc.seg))
	if err != nil {
		return Meta{}, nil, fmt.Errorf("pagestore: read segment: %w", err)
	}
	return decodeRecordAt(data, loc.offset)
}

// decodeRecordAt verifies the record at data[off] and returns its
// metadata and decompressed body.
func decodeRecordAt(data []byte, off int64) (Meta, []byte, error) {
	if off >= int64(len(data)) {
		return Meta{}, nil, fmt.Errorf("%w: offset beyond segment", ErrCorrupt)
	}
	_, _, meta, compressed, err := parseRecordAt(data, off)
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

// ReadLive returns the live records homed in segment seg in record
// (offset) order, bodies decompressed. It reads the segment file once;
// peak memory is the segment plus its decompressed live bodies. The
// live set is snapshotted at call time: a concurrent Compact may remove
// the segment underneath the read, which reports an error rather than
// partial data.
func (s *Store) ReadLive(seg int) ([]Record, error) { return s.ReadLivePrefix(seg, "") }

// ReadLivePrefix is ReadLive restricted to the keys that start with
// prefix. The filter runs on the in-memory key index before any I/O: a
// segment holding no such key is not opened, and a record outside the
// prefix is neither CRC-checked nor inflated. Every record returned is
// verified exactly as ReadLive verifies it.
func (s *Store) ReadLivePrefix(seg int, prefix string) ([]Record, error) {
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
	recs := make([]Record, 0, len(ents))
	for _, e := range ents {
		meta, body, err := decodeRecordAt(data, e.off)
		if err != nil {
			return nil, fmt.Errorf("pagestore: segment %d offset %d: %w", seg, e.off, err)
		}
		recs = append(recs, Record{Key: e.key, Meta: meta, Body: body})
	}
	return recs, nil
}

// MayContain reports whether segment seg can hold a record for key,
// consulting the sealed segment's bloom filter. False positives are
// possible (~1% at the footer's sizing); false negatives are not.
// Unsealed segments (and segments without an in-memory filter) answer
// true. This is the cross-store prefilter for merge workloads: a key
// lookup can skip every sealed segment whose filter excludes it.
func (s *Store) MayContain(seg int, key string) bool {
	s.mu.Lock()
	b, ok := s.blooms[seg]
	s.mu.Unlock()
	if !ok {
		return true
	}
	return bloomMayContain(b.bits, b.k, key)
}

// Has reports whether key is stored.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// KeysWithPrefix returns the live keys with the given prefix, sorted. The
// crawl pipeline uses it to enumerate one snapshot's documents.
func (s *Store) KeysWithPrefix(prefix string) []string {
	var out []string
	for _, k := range s.Keys() {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.active.Sync()
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
	if err := s.active.Sync(); err != nil {
		s.active.Close()
		return err
	}
	return s.active.Close()
}

// Compact rewrites every live record into fresh segments and removes the
// old files, dropping superseded versions. Live records are streamed one
// source segment at a time — read, copied in offset order, released — so
// peak memory is one segment, not the store. Output segments are rotated
// at the store's segment-size threshold and sealed (footered) as they
// fill; the final, partial one stays unsealed as the new active segment.
// The store stays usable afterwards — including after a failed compact,
// which restores the previous active segment and removes any partial
// output.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Group live locations by their home segment; copy order is
	// (segment, offset) ascending.
	bySeg := make(map[int][]segEntry)
	for k, loc := range s.index {
		bySeg[loc.seg] = append(bySeg[loc.seg], segEntry{key: k, off: loc.offset})
	}
	srcIDs := make([]int, 0, len(bySeg))
	for id := range bySeg {
		srcIDs = append(srcIDs, id)
	}
	sort.Ints(srcIDs)
	for _, id := range srcIDs {
		ents := bySeg[id]
		sort.Slice(ents, func(a, b int) bool { return ents[a].off < ents[b].off })
	}

	oldSegs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	oldActID := s.actID
	if err := s.active.Sync(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		// The handle is in an unknown state; fall through to the
		// recovery path, which reopens the segment for append.
		return s.compactFailLocked(nil, nil, oldActID, err)
	}

	var (
		out        *os.File
		outID      = s.actID
		outLen     int64
		outEntries map[string]int64
		created    []int
		newIndex   = make(map[string]location, len(s.index))
		newBlooms  = make(map[int]segBloom)
	)
	openOut := func() error {
		outID++
		f, err := os.OpenFile(s.segPath(outID), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("pagestore: compact segment: %w", err)
		}
		out = f
		outLen = 0
		outEntries = make(map[string]int64)
		created = append(created, outID)
		return nil
	}
	if err := openOut(); err != nil {
		return s.compactFailLocked(nil, created, oldActID, err)
	}
	for _, sid := range srcIDs {
		data, err := os.ReadFile(s.segPath(sid))
		if err != nil {
			return s.compactFailLocked(out, created, oldActID, err)
		}
		for _, e := range bySeg[sid] {
			recLen, _, _, _, err := parseRecordAt(data, e.off)
			if err != nil {
				return s.compactFailLocked(out, created, oldActID, err)
			}
			rec := data[e.off : e.off+recLen]
			if outLen > 0 && outLen+int64(len(rec)) > s.maxSeg {
				bloom, err := sealFile(out, outEntries, outLen)
				if err != nil {
					return s.compactFailLocked(out, created, oldActID, err)
				}
				if err := out.Close(); err != nil {
					return s.compactFailLocked(nil, created, oldActID, err)
				}
				newBlooms[outID] = bloom
				if err := openOut(); err != nil {
					return s.compactFailLocked(nil, created, oldActID, err)
				}
			}
			if _, err := out.Write(rec); err != nil {
				return s.compactFailLocked(out, created, oldActID, fmt.Errorf("pagestore: compact write: %w", err))
			}
			newIndex[e.key] = location{seg: outID, offset: outLen}
			outEntries[e.key] = outLen
			outLen += int64(len(rec))
		}
		// data is released here: the next iteration re-binds it, and
		// nothing retains the previous segment's bytes.
	}
	if err := out.Sync(); err != nil {
		return s.compactFailLocked(out, created, oldActID, err)
	}
	// Swap in the new state, delete the old segments. Output ids start
	// past the old active id, so the two sets never overlap.
	s.active = out
	s.actID = outID
	s.actLen = outLen
	s.actEntries = outEntries
	s.index = newIndex
	s.blooms = newBlooms
	for _, id := range oldSegs {
		if err := os.Remove(s.segPath(id)); err != nil {
			return fmt.Errorf("pagestore: remove old segment: %w", err)
		}
	}
	return nil
}

// compactFailLocked unwinds a failed compaction: closes and removes any
// partial output segments, then reopens the previous active segment for
// append so the store keeps accepting Puts. The index is untouched (it
// still points at the old segments, which are never deleted on failure).
func (s *Store) compactFailLocked(out *os.File, created []int, oldActID int, err error) error {
	if out != nil {
		if cerr := out.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	for _, id := range created {
		if rerr := os.Remove(s.segPath(id)); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}
	f, rerr := os.OpenFile(s.segPath(oldActID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if rerr != nil {
		return errors.Join(err, fmt.Errorf("pagestore: reopen active after failed compact: %w", rerr))
	}
	s.active = f
	s.actID = oldActID
	return err
}
