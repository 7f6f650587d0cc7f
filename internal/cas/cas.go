// Package cas is the persistent content-addressed artifact store behind
// the shared -store flag: the caching tier that makes the second run of
// any input cost approximately I/O.
//
// Layout (DESIGN.md §15) follows the classic memtable → immutable segment
// files → manifest discipline. Blobs are split into fixed-size chunks,
// each keyed by its FNV-1a content hash and checksummed with CRC32;
// chunks land in an in-memory memtable and are spilled to append-once
// segment files on Flush. A single JSON manifest maps logical keys —
// (ImageHash, ProfileKey) → profile, (ProgramHash, ConfigHash) → package
// set, and so on per kind — to chunk lists, so identical content (the
// profile shared by the four paper variants, unchanged packed programs
// across daemon restarts) is stored once regardless of how many keys
// reference it.
//
// Crash discipline: segment files are fsynced before the manifest
// references them, and the manifest itself is replaced atomically
// (write-temp, fsync, rename, fsync dir), so a crash at any point leaves
// the previous manifest — and therefore a consistent store — in place.
// Corruption on read (bad CRC, bad chunk or blob hash, truncated or
// missing segment) surfaces as an ErrCorrupt-wrapped error that callers
// treat as a cache miss; it is never a panic and never a wrong-artifact
// hit.
package cas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"unicode/utf8"
)

// Sentinel store errors; both are always wrapped with detail, so match
// with errors.Is.
var (
	// ErrNotFound reports that no entry exists under the requested key.
	ErrNotFound = errors.New("cas: not found")
	// ErrCorrupt reports that stored bytes failed a checksum, hash or
	// schema check. Callers treat it as a cache miss and recompute.
	ErrCorrupt = errors.New("cas: corrupt")
)

const (
	manifestName   = "MANIFEST.json"
	manifestSchema = "vpcas/manifest/v1"
	segmentMagic   = "vpcas/seg/v1\n"
	segmentSuffix  = ".vpseg"

	// chunkSize is the fixed split size; small enough that the per-chunk
	// CRC localizes corruption, large enough that chunk bookkeeping stays
	// a rounding error next to the payload.
	chunkSize = 64 << 10

	// recordOverhead is the per-chunk framing in a segment file:
	// key u64 + length u32 + crc u32.
	recordOverhead = 16
)

// Key addresses one logical artifact within a kind: two uint64 content
// hashes whose meaning the kind defines — (ImageHash, ProfileKey) for
// profiles, (ProgramHash, ConfigHash) for region artifacts and package
// sets, (ImageHash, MachineKey) for baseline timings, (NameKey, version)
// for daemon publications.
type Key struct {
	A uint64
	B uint64
}

// entryKey is the full index key: kind plus logical key.
type entryKey struct {
	kind string
	key  Key
}

// Entry describes one logical artifact in the index.
type Entry struct {
	Kind string
	Key  Key
	// Size and Hash cover the whole reassembled blob (FNV-1a).
	Size int64
	Hash uint64
	// Chunks lists the content-hash keys of the blob's chunks in order.
	Chunks []uint64
	// Created is the entry's write time (unix seconds); GC ages on it.
	Created int64
}

// chunkRef locates one chunk: in the memtable (seg < 0) or at a byte
// offset inside a segment file.
type chunkRef struct {
	seg int // index into Store.segments, -1 = memtable
	off int64
	n   uint32
	crc uint32
}

// segment is one immutable on-disk chunk file.
type segment struct {
	name  string
	bytes int64
	f     *os.File // lazily opened read handle
}

// Stats is a point-in-time snapshot of store shape and traffic.
type Stats struct {
	Entries  int
	Chunks   int
	Segments int
	// DiskBytes is the summed size of all segment files; MemBytes the
	// unflushed memtable payload; LiveBytes the summed logical size of
	// all entries (shared chunks counted once per entry).
	DiskBytes int64
	MemBytes  int64
	LiveBytes int64
	// Traffic over this handle's lifetime.
	Hits, Misses             uint64
	BytesRead, BytesWritten  uint64
	DedupChunks              uint64
	GCReclaimedBytes         uint64
	GCRuns, GCDroppedEntries uint64
}

// Store is one open artifact store rooted at a directory. All methods
// are safe for concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex
	gen      uint64 // last segment generation number used
	segments []*segment
	chunks   map[uint64]chunkRef
	mem      map[uint64][]byte
	memBytes int64
	entries  map[entryKey]*Entry
	dirty    bool // index state diverges from the on-disk manifest
	closed   bool
	loadErr  error // non-nil when Open fell back to a fresh store
	stats    Stats

	// now is the clock; tests override it to age entries.
	now func() time.Time
}

// Open opens (or creates) the store rooted at dir. A missing directory
// is created; a missing manifest means a fresh store. A corrupt manifest
// does not fail Open — the store comes up empty (every lookup misses and
// the pipeline recomputes) with the problem retained for LoadErr and
// Verify — but unreadable directories do.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	s := &Store{
		dir:     dir,
		chunks:  make(map[uint64]chunkRef),
		mem:     make(map[uint64][]byte),
		entries: make(map[entryKey]*Entry),
		now:     time.Now,
	}
	if err := s.loadManifest(); err != nil {
		// Fall back to an empty store: stale or corrupt metadata must cost
		// a re-profile, never an error or a wrong artifact.
		s.loadErr = err
		s.gen = s.scanMaxGeneration()
		s.segments = nil
		s.chunks = make(map[uint64]chunkRef)
		s.entries = make(map[entryKey]*Entry)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// LoadErr reports the manifest problem Open recovered from, if any.
func (s *Store) LoadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadErr
}

// hash64 is the store's content hash (FNV-1a, matching the artifact
// codecs' hash choice).
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// chunkHashes returns hash64 of data and of each of its chunkSize chunks
// (one for empty data), in one pass with two running FNV-1a states.
func chunkHashes(data []byte) (blob uint64, chunks []uint64) {
	const offset, prime = 14695981039346656037, 1099511628211
	blob = offset
	for off := 0; off == 0 || off < len(data); off += chunkSize {
		ck := uint64(offset)
		for _, c := range data[off:min(off+chunkSize, len(data))] {
			blob = (blob ^ uint64(c)) * prime
			ck = (ck ^ uint64(c)) * prime
		}
		chunks = append(chunks, ck)
	}
	return blob, chunks
}

// Put stores data under (kind, key), replacing any previous entry. The
// data is chunked and deduplicated against every chunk already present;
// storing identical content twice costs only index metadata. One pass
// over the bytes hashes the blob and its chunks; a kind that is not valid
// UTF-8 is refused.
func (s *Store) Put(kind string, key Key, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cas: put %s: store closed", kind)
	}
	if !utf8.ValidString(kind) { // JSON would reload it with U+FFFD
		return fmt.Errorf("cas: put %q: kind is not valid UTF-8", kind)
	}
	blobHash, keys := chunkHashes(data)
	ek := entryKey{kind: kind, key: key}
	if old, ok := s.entries[ek]; ok && old.Hash == blobHash && old.Size == int64(len(data)) {
		return nil // identical content already indexed
	}
	e := &Entry{
		Kind:    kind,
		Key:     key,
		Size:    int64(len(data)),
		Hash:    blobHash,
		Chunks:  keys,
		Created: s.now().Unix(),
	}
	for i, ck := range keys {
		if _, ok := s.chunks[ck]; ok {
			s.stats.DedupChunks++
			continue
		}
		cp := append([]byte(nil), data[i*chunkSize:min((i+1)*chunkSize, len(data))]...)
		s.mem[ck] = cp
		s.memBytes += int64(len(cp))
		s.chunks[ck] = chunkRef{seg: -1, n: uint32(len(cp)), crc: crc32.ChecksumIEEE(cp)}
	}
	s.entries[ek] = e
	s.dirty = true
	s.stats.BytesWritten += uint64(len(data))
	return nil
}

// Get returns the blob stored under (kind, key). A missing entry returns
// an ErrNotFound-wrapped error; stored bytes that fail any checksum or
// hash return an ErrCorrupt-wrapped error. Both count as misses.
func (s *Store) Get(kind string, key Key) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey{kind: kind, key: key}]
	if !ok {
		s.stats.Misses++
		return nil, fmt.Errorf("cas: %s %016x/%016x: %w", kind, key.A, key.B, ErrNotFound)
	}
	data, err := s.assembleLocked(e)
	if err != nil {
		s.stats.Misses++
		return nil, err
	}
	s.stats.Hits++
	s.stats.BytesRead += uint64(len(data))
	return data, nil
}

// Has reports whether an entry exists under (kind, key) without reading
// or verifying its chunks.
func (s *Store) Has(kind string, key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[entryKey{kind: kind, key: key}]
	return ok
}

// assembleLocked reads, checksums and reassembles one entry's blob.
func (s *Store) assembleLocked(e *Entry) ([]byte, error) {
	if e.Size < 0 || e.Size > int64(len(e.Chunks))*chunkSize {
		return nil, fmt.Errorf("cas: %s %016x/%016x: size %d does not fit %d chunks: %w",
			e.Kind, e.Key.A, e.Key.B, e.Size, len(e.Chunks), ErrCorrupt)
	}
	data := make([]byte, 0, e.Size)
	for _, ck := range e.Chunks {
		chunk, err := s.readChunkLocked(ck)
		if err != nil {
			return nil, fmt.Errorf("cas: %s %016x/%016x: %w", e.Kind, e.Key.A, e.Key.B, err)
		}
		data = append(data, chunk...)
	}
	if int64(len(data)) != e.Size || hash64(data) != e.Hash {
		return nil, fmt.Errorf("cas: %s %016x/%016x: blob hash mismatch: %w",
			e.Kind, e.Key.A, e.Key.B, ErrCorrupt)
	}
	return data, nil
}

// readChunkLocked fetches one chunk from the memtable or its segment,
// verifying the CRC and the content hash against the chunk key.
func (s *Store) readChunkLocked(ck uint64) ([]byte, error) {
	ref, ok := s.chunks[ck]
	if !ok {
		return nil, fmt.Errorf("chunk %016x missing from index: %w", ck, ErrCorrupt)
	}
	if ref.seg < 0 {
		return s.mem[ck], nil
	}
	if ref.seg >= len(s.segments) {
		return nil, fmt.Errorf("chunk %016x: segment index out of range: %w", ck, ErrCorrupt)
	}
	if ref.n > chunkSize {
		return nil, fmt.Errorf("chunk %016x: length %d past the chunk size: %w", ck, ref.n, ErrCorrupt)
	}
	seg := s.segments[ref.seg]
	if seg.f == nil {
		f, err := os.Open(filepath.Join(s.dir, seg.name))
		if err != nil {
			return nil, fmt.Errorf("chunk %016x: open segment %s: %v: %w", ck, seg.name, err, ErrCorrupt)
		}
		seg.f = f
	}
	buf := make([]byte, ref.n)
	if _, err := seg.f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("chunk %016x: read segment %s: %v: %w", ck, seg.name, err, ErrCorrupt)
	}
	if crc32.ChecksumIEEE(buf) != ref.crc {
		return nil, fmt.Errorf("chunk %016x: crc mismatch in %s: %w", ck, seg.name, ErrCorrupt)
	}
	if hash64(buf) != ck {
		return nil, fmt.Errorf("chunk %016x: content hash mismatch in %s: %w", ck, seg.name, ErrCorrupt)
	}
	return buf, nil
}

// Flush spills the memtable into a new immutable segment file and
// rewrites the manifest. The segment is fsynced before the manifest
// references it; the manifest replace is atomic. A clean store is a
// no-op.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.mem) > 0 {
		if err := s.writeSegmentLocked(); err != nil {
			return err
		}
	}
	if !s.dirty {
		return nil
	}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// writeSegmentLocked persists every memtable chunk into one new segment
// file, in sorted chunk-key order so identical content always produces
// identical segment bytes.
func (s *Store) writeSegmentLocked() error {
	keys := make([]uint64, 0, len(s.mem))
	for ck := range s.mem {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	s.gen++
	name := fmt.Sprintf("seg-%016x%s", s.gen, segmentSuffix)
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cas: write segment: %w", err)
	}
	var (
		off  = int64(len(segmentMagic))
		refs = make(map[uint64]chunkRef, len(keys))
		hdr  [recordOverhead]byte
	)
	if _, err := f.WriteString(segmentMagic); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cas: write segment: %w", err)
	}
	for _, ck := range keys {
		chunk := s.mem[ck]
		crc := s.chunks[ck].crc // taken by Put
		binary.LittleEndian.PutUint64(hdr[0:8], ck)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(chunk)))
		binary.LittleEndian.PutUint32(hdr[12:16], crc)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cas: write segment: %w", err)
		}
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cas: write segment: %w", err)
		}
		refs[ck] = chunkRef{off: off + recordOverhead, n: uint32(len(chunk)), crc: crc}
		off += recordOverhead + int64(len(chunk))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cas: sync segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: close segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: publish segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	segIdx := len(s.segments)
	s.segments = append(s.segments, &segment{name: name, bytes: off})
	for ck, ref := range refs {
		ref.seg = segIdx
		s.chunks[ck] = ref
	}
	s.mem = make(map[uint64][]byte)
	s.memBytes = 0
	s.dirty = true
	return nil
}

// Close flushes pending writes, fsyncs the manifest and releases file
// handles. Safe to call more than once.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	for _, seg := range s.segments {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
	s.closed = true
	return err
}

// Stats returns a snapshot of store shape and lifetime traffic.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Chunks = len(s.chunks)
	st.Segments = len(s.segments)
	st.MemBytes = s.memBytes
	st.DiskBytes = 0
	for _, seg := range s.segments {
		st.DiskBytes += seg.bytes
	}
	st.LiveBytes = 0
	for _, e := range s.entries {
		st.LiveBytes += e.Size
	}
	return st
}

// List returns every entry (copies), sorted by kind then key, for
// inspection tools.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	ordered := s.listLocked()
	out := make([]Entry, 0, len(ordered))
	for _, e := range ordered {
		cp := *e
		cp.Chunks = append([]uint64(nil), e.Chunks...)
		out = append(out, cp)
	}
	return out
}

// Verify re-reads and re-checksums every entry, returning one error per
// problem found (manifest fallback included), in List order. An empty
// slice means the store is fully intact.
func (s *Store) Verify() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	if s.loadErr != nil {
		errs = append(errs, s.loadErr)
	}
	for _, e := range s.listLocked() {
		if _, err := s.assembleLocked(e); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// syncDir fsyncs a directory so a just-renamed file inside it survives a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cas: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cas: sync dir: %w", err)
	}
	return nil
}

// scanMaxGeneration finds the highest segment generation present on
// disk, so a store recovered from a corrupt manifest never reuses (and
// silently clobbers) an existing segment name.
func (s *Store) scanMaxGeneration() uint64 {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*"+segmentSuffix))
	if err != nil {
		return 0
	}
	var max uint64
	for _, n := range names {
		base := filepath.Base(n)
		var g uint64
		if _, err := fmt.Sscanf(base, "seg-%016x"+segmentSuffix, &g); err == nil && g > max {
			max = g
		}
	}
	return max
}
