// Manifest codec: the single JSON root object that makes the store's
// segment files meaningful. uint64 hashes travel as zero-padded hex
// strings (JSON numbers lose precision past 2^53), and the file is
// replaced atomically so every on-disk manifest is complete.
package cas

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type manifestJSON struct {
	Schema     string        `json:"schema"`
	Generation uint64        `json:"generation"`
	Segments   []segmentJSON `json:"segments"`
	Entries    []entryJSON   `json:"entries"`
}

type segmentJSON struct {
	Name   string      `json:"name"`
	Bytes  int64       `json:"bytes"`
	Chunks []chunkJSON `json:"chunks"`
}

type chunkJSON struct {
	Key string `json:"key"` // %016x content hash
	Off int64  `json:"off"`
	Len uint32 `json:"len"`
	CRC uint32 `json:"crc"`
}

type entryJSON struct {
	Kind    string   `json:"kind"`
	A       string   `json:"a"` // %016x
	B       string   `json:"b"` // %016x
	Size    int64    `json:"size"`
	Hash    string   `json:"hash"` // %016x
	Chunks  []string `json:"chunks"`
	Created int64    `json:"created"`
}

// hexU64 formats v as 16 lower-case hex digits, zero-padded.
func hexU64(v uint64) string {
	return hex.EncodeToString(binary.BigEndian.AppendUint64(make([]byte, 0, 8), v))
}

func parseU64(s string) (uint64, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%016x", &v); err != nil {
		return 0, fmt.Errorf("cas: manifest: bad hash %q: %w", s, ErrCorrupt)
	}
	return v, nil
}

// writeManifestLocked atomically replaces the manifest with the current
// index state. Segments must already be durable (flushLocked orders the
// segment fsync before this call). It groups chunks by segment in one
// pass, but still rewrites the whole manifest on every flush.
func (s *Store) writeManifestLocked() error {
	m := manifestJSON{Schema: manifestSchema, Generation: s.gen}
	for _, seg := range s.segments {
		m.Segments = append(m.Segments, segmentJSON{Name: seg.name, Bytes: seg.bytes})
	}
	for ck, ref := range s.chunks {
		if ref.seg >= 0 && ref.seg < len(m.Segments) {
			sj := &m.Segments[ref.seg]
			sj.Chunks = append(sj.Chunks, chunkJSON{Key: hexU64(ck), Off: ref.off, Len: ref.n, CRC: ref.crc})
		}
	}
	for _, sj := range m.Segments {
		c := sj.Chunks
		sort.Slice(c, func(a, b int) bool { return c[a].Off < c[b].Off })
	}
	for _, e := range s.listLocked() {
		ej := entryJSON{
			Kind: e.Kind, A: hexU64(e.Key.A), B: hexU64(e.Key.B),
			Size: e.Size, Hash: hexU64(e.Hash), Created: e.Created,
		}
		for _, ck := range e.Chunks {
			ej.Chunks = append(ej.Chunks, hexU64(ck))
		}
		m.Entries = append(m.Entries, ej)
	}

	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cas: write manifest: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(&m); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cas: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cas: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: close manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: publish manifest: %w", err)
	}
	return syncDir(s.dir)
}

// listLocked returns the live entries sorted by kind then key; the
// manifest writer and the inspection surfaces share it so their order
// is identical.
func (s *Store) listLocked() []*Entry {
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key.A != b.Key.A {
			return a.Key.A < b.Key.A
		}
		return a.Key.B < b.Key.B
	})
	return out
}

// loadManifest reads the manifest and rebuilds the index. Any problem —
// missing fields, schema drift, unparseable hashes — is returned wrapped
// in ErrCorrupt (except a cleanly absent manifest, which is a fresh
// store).
func (s *Store) loadManifest() error {
	f, err := os.Open(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cas: open manifest: %v: %w", err, ErrCorrupt)
	}
	defer f.Close()
	var m manifestJSON
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return fmt.Errorf("cas: decode manifest: %v: %w", err, ErrCorrupt)
	}
	if m.Schema != manifestSchema {
		return fmt.Errorf("cas: manifest schema %q, want %q: %w", m.Schema, manifestSchema, ErrCorrupt)
	}
	s.gen = m.Generation
	for i, sj := range m.Segments {
		// A segment is a file in the store directory; GC deletes it by
		// this name.
		if sj.Name != filepath.Base(sj.Name) || !strings.HasSuffix(sj.Name, segmentSuffix) {
			return fmt.Errorf("cas: manifest: bad segment name %q: %w", sj.Name, ErrCorrupt)
		}
		s.segments = append(s.segments, &segment{name: sj.Name, bytes: sj.Bytes})
		for _, cj := range sj.Chunks {
			ck, err := parseU64(cj.Key)
			if err != nil {
				return err
			}
			s.chunks[ck] = chunkRef{seg: i, off: cj.Off, n: cj.Len, crc: cj.CRC}
		}
	}
	for _, ej := range m.Entries {
		a, err := parseU64(ej.A)
		if err != nil {
			return err
		}
		b, err := parseU64(ej.B)
		if err != nil {
			return err
		}
		h, err := parseU64(ej.Hash)
		if err != nil {
			return err
		}
		e := &Entry{
			Kind: ej.Kind, Key: Key{A: a, B: b},
			Size: ej.Size, Hash: h, Created: ej.Created,
		}
		for _, cs := range ej.Chunks {
			ck, err := parseU64(cs)
			if err != nil {
				return err
			}
			e.Chunks = append(e.Chunks, ck)
		}
		s.entries[entryKey{kind: e.Kind, key: e.Key}] = e
	}
	return nil
}
