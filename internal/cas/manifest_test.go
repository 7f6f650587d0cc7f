package cas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// referenceManifest renders the store's index the way the manifest
// writer did before it grouped chunks in one pass: one scan of every
// chunk per segment, hashes through fmt.
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
