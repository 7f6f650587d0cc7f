package cas

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
	"unicode/utf8"
)

// referenceManifest renders the store's index the way the manifest
// writer did before it wrote straight from the index: a manifestJSON
// built with one scan of every chunk per segment and hashes through fmt,
// encoded by json.Encoder with a one-space indent.
func referenceManifest(t *testing.T, s *Store) []byte {
	t.Helper()
	hex := func(v uint64) string { return fmt.Sprintf("%016x", v) }
	m := manifestJSON{Schema: manifestSchema, Generation: s.gen}
	for i, seg := range s.segments {
		sj := segmentJSON{Name: seg.name, Bytes: seg.bytes}
		for ck, ref := range s.chunks {
			if ref.seg == i {
				sj.Chunks = append(sj.Chunks, chunkJSON{Key: hex(ck), Off: ref.off, Len: ref.n, CRC: ref.crc})
			}
		}
		sort.Slice(sj.Chunks, func(a, b int) bool { return sj.Chunks[a].Off < sj.Chunks[b].Off })
		m.Segments = append(m.Segments, sj)
	}
	for _, e := range s.listLocked() {
		ej := entryJSON{Kind: e.Kind, A: hex(e.Key.A), B: hex(e.Key.B), Size: e.Size, Hash: hex(e.Hash), Created: e.Created}
		for _, ck := range e.Chunks {
			ej.Chunks = append(ej.Chunks, hex(ck))
		}
		m.Entries = append(m.Entries, ej)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(&m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestManifestMatchesReference flushes 60 generations of overlapping,
// overwritten and shared-chunk entries, then collects garbage, evicts by
// size and evicts everything, and checks after each step that
// MANIFEST.json is byte for byte what the reference writer renders.
func TestManifestMatchesReference(t *testing.T) {
	s, clk := openClocked(t, t.TempDir())
	check := func(step string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(s.dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		want := referenceManifest(t, s)
		s.mu.Unlock()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: MANIFEST.json differs from the reference writer:\n got: %s\nwant: %s", step, got, want)
		}
	}
	for i := 0; i < 60; i++ {
		clk.advance(time.Second)
		// A fresh entry, one overwriting an older key, and one sharing
		// chunks with every other flush's entry.
		mustPut(t, s, KindProfile, Key{A: uint64(i)}, blob(byte(i), chunkSize+100*i))
		mustPut(t, s, KindRegion, Key{A: uint64(i % 7)}, blob(byte(i+100), 300+i))
		mustPut(t, s, KindVersion, Key{A: uint64(i), B: 1}, blob(byte(i%3), 2*chunkSize))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("flush %d", i))
	}
	if _, err := s.GC(0, 0); err != nil {
		t.Fatal(err)
	}
	check("gc")
	if res, err := s.GC(s.Stats().DiskBytes/3, 0); err != nil || res.DroppedEntries == 0 {
		t.Fatalf("size gc: %+v, %v", res, err)
	}
	check("size gc")
	clk.advance(time.Hour)
	if res, err := s.GC(0, time.Second); err != nil || res.LiveEntries != 0 {
		t.Fatalf("gc of everything: %+v, %v", res, err)
	}
	check("gc of everything")
}

// FuzzPutFlush drives the store's write path with a fuzzed script over
// two fuzzed kind strings: 4-byte ops that Put a blob (its tag and length
// fuzzed, up to past 3×chunkSize, so blobs share chunks), Flush, or run
// the one GC. After every Flush, MANIFEST.json must be what
// the encoding/json reference renders, every entry must read back as put
// with Entry.Hash the FNV-1a of its blob, and a reopened store must list
// the same entries. A kind that is not valid UTF-8 must be refused.
func FuzzPutFlush(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte, kind0, kind1 string, keyA uint64) {
		dir := t.TempDir()
		s := open(t, dir)
		defer s.Close()
		want := make(map[entryKey][]byte)
		check := func(step string) {
			t.Helper()
			got, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil && !(os.IsNotExist(err) && len(want) == 0) {
				t.Fatalf("%s: %v", step, err)
			}
			s.mu.Lock()
			ref := referenceManifest(t, s)
			s.mu.Unlock()
			if err == nil && !bytes.Equal(got, ref) {
				t.Fatalf("%s: MANIFEST.json differs from the reference writer:\n got: %q\nwant: %q", step, got, ref)
			}
			list := s.List()
			if len(list) != len(want) {
				t.Fatalf("%s: %d entries listed, %d put", step, len(list), len(want))
			}
			for _, e := range list {
				data, ok := want[entryKey{kind: e.Kind, key: e.Key}]
				if !ok {
					t.Fatalf("%s: unexpected entry %q %v", step, e.Kind, e.Key)
				}
				h := fnv.New64a()
				h.Write(data)
				if e.Hash != h.Sum64() {
					t.Fatalf("%s: %q %v: Entry.Hash %016x, FNV-1a of the blob %016x", step, e.Kind, e.Key, e.Hash, h.Sum64())
				}
				if back, err := s.Get(e.Kind, e.Key); err != nil || !bytes.Equal(back, data) {
					t.Fatalf("%s: %q %v read back %d bytes, %v; want the %d bytes put", step, e.Kind, e.Key, len(back), err, len(data))
				}
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("%s: reopen: %v", step, err)
			}
			defer r.Close()
			if err := r.LoadErr(); err != nil {
				t.Fatalf("%s: reopen: %v", step, err)
			}
			if relist := r.List(); !reflect.DeepEqual(relist, list) {
				t.Fatalf("%s: reopened store lists %+v, want %+v", step, relist, list)
			}
		}
		if len(script) > 48 {
			script = script[:48]
		}
		gced := false
		for i := 0; i+4 <= len(script); i += 4 {
			op, tag := script[i], script[i+1]
			switch op % 4 {
			case 0, 1:
				kind := kind0
				if op&4 != 0 {
					kind = kind1
				}
				n := int(binary.LittleEndian.Uint16(script[i+2:])) + int(op>>4%4)*chunkSize
				k := Key{A: keyA + uint64(tag%4), B: uint64(op >> 6)}
				data := blob(tag, n)
				err := s.Put(kind, k, data)
				if !utf8.ValidString(kind) {
					if err == nil {
						t.Fatalf("put of kind %q, not valid UTF-8, was accepted", kind)
					}
					continue
				}
				if err != nil {
					t.Fatalf("put %q %v: %v", kind, k, err)
				}
				want[entryKey{kind: kind, key: k}] = data
			case 2:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("flush at op %d", i/4))
			case 3:
				if gced {
					continue
				}
				gced = true
				if _, err := s.GC(0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		check("final flush")
	})
}
