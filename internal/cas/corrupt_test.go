package cas

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedStore writes one multi-chunk blob, flushes it to a segment and
// closes the store, returning the directory and segment path.
func seedStore(t *testing.T) (dir, segPath string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	s := open(t, dir)
	data = blob(42, 2*chunkSize+100)
	mustPut(t, s, KindProfile, Key{A: 1, B: 2}, data)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*"+segmentSuffix))
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	return dir, names[0], data
}

// reopenExpectCorrupt reopens the store and requires the seeded key to
// fail with ErrCorrupt — a clean miss, not a panic and not data.
func reopenExpectCorrupt(t *testing.T, dir string) *Store {
	t.Helper()
	s := open(t, dir)
	if _, err := s.Get(KindProfile, Key{A: 1, B: 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read error = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("corrupted read counted %+v, want one miss", st)
	}
	return s
}

// TestTruncatedSegment: chopping the tail off a segment file turns reads
// of the blobs inside it into clean corrupt misses and Verify into a
// typed report.
func TestTruncatedSegment(t *testing.T) {
	dir, seg, _ := seedStore(t)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	s := reopenExpectCorrupt(t, dir)
	errs := s.Verify()
	if len(errs) == 0 || !errors.Is(errs[0], ErrCorrupt) {
		t.Fatalf("verify on truncated segment: %v", errs)
	}
}

// TestBitFlippedBlob: flipping one payload bit fails the chunk CRC.
func TestBitFlippedBlob(t *testing.T) {
	dir, seg, _ := seedStore(t)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := reopenExpectCorrupt(t, dir)
	if errs := s.Verify(); len(errs) == 0 {
		t.Fatal("verify missed the flipped bit")
	}
}

// TestMissingSegment: deleting a segment file out from under the
// manifest is a clean corrupt miss.
func TestMissingSegment(t *testing.T) {
	dir, seg, _ := seedStore(t)
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	s := reopenExpectCorrupt(t, dir)
	if errs := s.Verify(); len(errs) == 0 {
		t.Fatal("verify missed the deleted segment")
	}
}

// TestCorruptManifest: garbage where the manifest should be opens an
// empty store (a full re-profile, not an error), records the problem
// for Verify, and keeps working — including not clobbering the orphaned
// segment file of the previous generation.
func TestCorruptManifest(t *testing.T) {
	dir, seg, _ := seedStore(t)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	if s.LoadErr() == nil {
		t.Fatal("LoadErr nil after corrupt manifest")
	}
	if _, err := s.Get(KindProfile, Key{A: 1, B: 2}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after manifest loss = %v, want ErrNotFound", err)
	}
	errs := s.Verify()
	if len(errs) == 0 || !errors.Is(errs[0], ErrCorrupt) {
		t.Fatalf("verify must surface the manifest problem: %v", errs)
	}
	// The store stays usable: new writes flush into a fresh generation
	// without reusing the orphan's name.
	mustPut(t, s, KindProfile, Key{A: 9}, blob(9, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("recovery clobbered orphan segment: %v", err)
	}
	mustGet(t, s, KindProfile, Key{A: 9}, blob(9, 100))
}

// TestStaleManifestSchema: a manifest from a future/foreign schema is
// treated exactly like corruption — empty store, typed Verify error.
func TestStaleManifestSchema(t *testing.T) {
	dir, _, _ := seedStore(t)
	if err := os.WriteFile(filepath.Join(dir, manifestName),
		[]byte(`{"schema":"vpcas/manifest/v999","generation":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	err := s.LoadErr()
	if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "v999") {
		t.Fatalf("LoadErr = %v, want ErrCorrupt naming the schema", err)
	}
	if len(s.List()) != 0 {
		t.Fatal("stale-schema store served entries")
	}
}

// TestManifestEntryHashTamper: editing an entry's blob hash in the
// manifest makes the read fail the whole-blob check — the index can
// never redirect a key to different content.
func TestManifestEntryHashTamper(t *testing.T) {
	dir, _, _ := seedStore(t)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The entry's "size" field participates in the blob check; growing it
	// by one makes the reassembled blob mismatch.
	tampered := strings.Replace(string(raw), `"size": `, `"size": 1`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in manifest")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpectCorrupt(t, dir)
}

// TestManifestNegativeSize: a tampered negative blob size is a clean
// corrupt miss, not a panic sizing the read buffer.
func TestManifestNegativeSize(t *testing.T) {
	dir, _, _ := seedStore(t)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"size": `, `"size": -`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in manifest")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpectCorrupt(t, dir)
}

// TestManifestSegmentOutsideStore: a manifest naming a segment outside
// the store directory is refused whole, so neither a read nor GC ever
// touches a file outside the store.
func TestManifestSegmentOutsideStore(t *testing.T) {
	dir, seg, _ := seedStore(t)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(seg)
	tampered := strings.Replace(string(raw), `"`+name+`"`, `"../`+name+`"`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in manifest")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	if err := s.LoadErr(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "segment name") {
		t.Fatalf("LoadErr = %v, want ErrCorrupt naming the segment", err)
	}
	if len(s.List()) != 0 {
		t.Fatal("store served entries from a manifest naming a foreign segment")
	}
}

// FuzzOpen fuzzes Open over a store directory holding fuzzed manifest
// bytes and one fuzzed segment file. The seed corpus
// (testdata/fuzz/FuzzOpen) holds a flushed two-entry store. Open must
// come up, every listed entry must read back as data or as a clean
// ErrCorrupt/ErrNotFound miss, and Verify and Stats must not panic.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, segment []byte, segName string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		// The segment lands inside dir or nowhere; a name the file
		// system refuses (".", "..") writes no segment.
		if segName == filepath.Base(segName) && segName != manifestName {
			_ = os.WriteFile(filepath.Join(dir, segName), segment, 0o644)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		for _, e := range s.List() {
			if _, err := s.Get(e.Kind, e.Key); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("get %s %016x/%016x: %v, want ErrCorrupt or ErrNotFound", e.Kind, e.Key.A, e.Key.B, err)
			}
		}
		s.Verify()
		s.Stats()
	})
}
