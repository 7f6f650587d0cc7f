// Manifest codec: the single JSON root object that makes the store's
// segment files meaningful. uint64 hashes travel as zero-padded hex
// strings (JSON numbers lose precision past 2^53), and the file is
// replaced atomically so every on-disk manifest is complete.
package cas

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

func parseU64(s string) (uint64, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%016x", &v); err != nil {
		return 0, fmt.Errorf("cas: manifest: bad hash %q: %w", s, ErrCorrupt)
	}
	return v, nil
}

// writeManifestLocked atomically replaces the manifest with the current
// index state. Segments must already be durable (flushLocked orders the
// segment fsync before this call). The manifest is rewritten whole on
// every flush.
func (s *Store) writeManifestLocked() error {
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cas: write manifest: %w", err)
	}
	if _, err := f.Write(s.appendManifest(nil)); err != nil {
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

// appendManifest renders the index as the manifest: byte for byte what
// json.Encoder with a one-space indent writes for the manifestJSON of the
// index (the test-only referenceManifest checks it), appended straight
// from the segments, chunks and entries.
func (s *Store) appendManifest(b []byte) []byte {
	bySeg := make([][]uint64, len(s.segments))
	for ck, ref := range s.chunks {
		if ref.seg >= 0 && ref.seg < len(bySeg) {
			bySeg[ref.seg] = append(bySeg[ref.seg], ck)
		}
	}
	b = appendJSONString(append(b, "{\n \"schema\": "...), manifestSchema)
	b = strconv.AppendUint(append(b, ",\n \"generation\": "...), s.gen, 10)
	b = appendArray(append(b, ",\n \"segments\": "...), len(s.segments), " ", func(b []byte, i int) []byte {
		b = appendJSONString(append(b, "{\n   \"name\": "...), s.segments[i].name)
		b = strconv.AppendInt(append(b, ",\n   \"bytes\": "...), s.segments[i].bytes, 10)
		keys := bySeg[i]
		sort.Slice(keys, func(x, y int) bool { return s.chunks[keys[x]].off < s.chunks[keys[y]].off })
		b = appendArray(append(b, ",\n   \"chunks\": "...), len(keys), "   ", func(b []byte, j int) []byte {
			ref := s.chunks[keys[j]]
			b = appendHex(append(b, "{\n     \"key\": "...), keys[j])
			b = strconv.AppendInt(append(b, ",\n     \"off\": "...), ref.off, 10)
			b = strconv.AppendUint(append(b, ",\n     \"len\": "...), uint64(ref.n), 10)
			b = strconv.AppendUint(append(b, ",\n     \"crc\": "...), uint64(ref.crc), 10)
			return append(b, "\n    }"...)
		})
		return append(b, "\n  }"...)
	})
	entries := s.listLocked()
	b = appendArray(append(b, ",\n \"entries\": "...), len(entries), " ", func(b []byte, i int) []byte {
		e := entries[i]
		b = appendJSONString(append(b, "{\n   \"kind\": "...), e.Kind)
		b = appendHex(append(b, ",\n   \"a\": "...), e.Key.A)
		b = appendHex(append(b, ",\n   \"b\": "...), e.Key.B)
		b = strconv.AppendInt(append(b, ",\n   \"size\": "...), e.Size, 10)
		b = appendHex(append(b, ",\n   \"hash\": "...), e.Hash)
		b = appendArray(append(b, ",\n   \"chunks\": "...), len(e.Chunks), "   ", func(b []byte, j int) []byte {
			return appendHex(b, e.Chunks[j])
		})
		b = strconv.AppendInt(append(b, ",\n   \"created\": "...), e.Created, 10)
		return append(b, "\n  }"...)
	})
	return append(b, "\n}\n"...)
}

// appendArray appends n elements, each rendered by elem, as an indented
// JSON array whose closing bracket sits at indent: null when n is 0, as
// encoding/json writes a nil slice.
func appendArray(b []byte, n int, indent string, elem func(b []byte, i int) []byte) []byte {
	if n == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(append(append(append(b, '\n'), indent...), ' '), i)
	}
	return append(append(append(b, '\n'), indent...), ']')
}

// appendHex appends v as a JSON string of 16 lower-case hex digits.
func appendHex(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	b = append(b, '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return append(b, '"')
}

// appendJSONString appends str quoted as encoding/json quotes it: as is
// when every byte is printable ASCII that json copies verbatim, and
// through json.Marshal otherwise (control bytes, invalid UTF-8, the
// quote, the backslash and the HTML-escaped <, > and &). Kind strings
// and segment names can come from a loaded manifest.
func appendJSONString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(str)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
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
