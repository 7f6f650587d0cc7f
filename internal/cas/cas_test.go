package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// blob synthesizes n deterministic bytes seeded by tag.
func blob(tag byte, n int) []byte {
	b := make([]byte, n)
	x := uint32(tag)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, kind string, k Key, data []byte) {
	t.Helper()
	if err := s.Put(kind, k, data); err != nil {
		t.Fatalf("put %s: %v", kind, err)
	}
}

func mustGet(t *testing.T, s *Store, kind string, k Key, want []byte) {
	t.Helper()
	got, err := s.Get(kind, k)
	if err != nil {
		t.Fatalf("get %s: %v", kind, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("get %s: %d bytes, want %d, content differs", kind, len(got), len(want))
	}
}

// TestRoundTrip: puts of several sizes (empty, sub-chunk, multi-chunk)
// read back intact both from the memtable and, after Flush, from
// segment files — and again from a fresh Open of the same directory.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	blobs := map[Key][]byte{
		{A: 1, B: 1}: {},
		{A: 1, B: 2}: blob(1, 100),
		{A: 2, B: 1}: blob(2, chunkSize),
		{A: 2, B: 2}: blob(3, 3*chunkSize+17),
	}
	for k, d := range blobs {
		mustPut(t, s, KindProfile, k, d)
	}
	for k, d := range blobs {
		mustGet(t, s, KindProfile, k, d) // memtable reads
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, d := range blobs {
		mustGet(t, s, KindProfile, k, d) // segment reads
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if got := len(s2.List()); got != len(blobs) {
		t.Fatalf("reopened store has %d entries, want %d", got, len(blobs))
	}
	for k, d := range blobs {
		mustGet(t, s2, KindProfile, k, d) // recovered reads
	}
	st := s2.Stats()
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
	if st.Hits != uint64(len(blobs)) {
		t.Fatalf("hits = %d, want %d", st.Hits, len(blobs))
	}
}

// TestNotFoundAndKinds: a miss wraps ErrNotFound, and the same Key under
// different kinds addresses different blobs.
func TestNotFoundAndKinds(t *testing.T) {
	s := open(t, t.TempDir())
	k := Key{A: 7, B: 7}
	if _, err := s.Get(KindProfile, k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss error = %v, want ErrNotFound", err)
	}
	mustPut(t, s, KindProfile, k, blob(1, 64))
	mustPut(t, s, KindPackageSet, k, blob(2, 64))
	mustGet(t, s, KindProfile, k, blob(1, 64))
	mustGet(t, s, KindPackageSet, k, blob(2, 64))
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestDedup: identical content under many keys is stored once — the
// second key costs index metadata, not chunk bytes.
func TestDedup(t *testing.T) {
	s := open(t, t.TempDir())
	data := blob(9, 2*chunkSize)
	mustPut(t, s, KindProfile, Key{A: 1}, data)
	mem := s.Stats().MemBytes
	for i := uint64(2); i <= 5; i++ {
		mustPut(t, s, KindPackageSet, Key{A: i}, data)
	}
	st := s.Stats()
	if st.MemBytes != mem {
		t.Fatalf("memtable grew %d -> %d storing duplicate content", mem, st.MemBytes)
	}
	if st.DedupChunks != 4*2 {
		t.Fatalf("dedup chunks = %d, want 8", st.DedupChunks)
	}
	// Overwriting a key with new content replaces the entry.
	next := blob(10, 100)
	mustPut(t, s, KindProfile, Key{A: 1}, next)
	mustGet(t, s, KindProfile, Key{A: 1}, next)
}

// TestFlushIdempotent: Flush with nothing pending writes nothing new,
// and repeated put/flush cycles accumulate segments that all stay
// readable.
func TestFlushIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	mustPut(t, s, KindProfile, Key{A: 1}, blob(1, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("idempotent flush made %d segments, want 1", st.Segments)
	}
	mustPut(t, s, KindProfile, Key{A: 2}, blob(2, 100))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want 2", st.Segments)
	}
	mustGet(t, s, KindProfile, Key{A: 1}, blob(1, 100))
	mustGet(t, s, KindProfile, Key{A: 2}, blob(2, 100))
	if errs := s.Verify(); len(errs) != 0 {
		t.Fatalf("verify: %v", errs)
	}
}

// TestConcurrent hammers one store from many goroutines — puts, gets,
// flushes — for the race detector's benefit.
func TestConcurrent(t *testing.T) {
	s := open(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := Key{A: uint64(g), B: uint64(i)}
				data := blob(byte(g*20+i), 1000+i)
				if err := s.Put(KindProfile, k, data); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := s.Get(KindProfile, k)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("get %v: %v", k, err)
					return
				}
				if i%7 == 0 {
					if err := s.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if errs := s.Verify(); len(errs) != 0 {
		t.Fatalf("verify after concurrent load: %v", errs)
	}
}

// TestDeterministicSegments: the same content flushed in different
// insertion orders produces byte-identical segment files (chunks are
// sorted by content key at write time).
func TestDeterministicSegments(t *testing.T) {
	write := func(dir string, reverse bool) string {
		s := open(t, dir)
		keys := []Key{{A: 1}, {A: 2}, {A: 3}}
		if reverse {
			keys = []Key{{A: 3}, {A: 2}, {A: 1}}
		}
		for _, k := range keys {
			mustPut(t, s, KindProfile, k, blob(byte(k.A), 5000))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "seg-*"+segmentSuffix))
		if err != nil || len(names) != 1 {
			t.Fatalf("segments: %v %v", names, err)
		}
		return names[0]
	}
	a := write(t.TempDir(), false)
	b := write(t.TempDir(), true)
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("segment bytes differ across insertion orders")
	}
}

// TestClosedPut: a closed store refuses writes instead of corrupting
// state.
func TestClosedPut(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindProfile, Key{A: 1}, []byte("x")); err == nil {
		t.Fatal("put on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestManyEntriesManifest: a store with entries across kinds and several
// flush generations reopens with every entry listed in deterministic
// order.
func TestManyEntriesManifest(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	kinds := Kinds
	for i, kind := range kinds {
		for j := uint64(0); j < 3; j++ {
			mustPut(t, s, kind, Key{A: j, B: uint64(i)}, blob(byte(i*3+int(j)), 777))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	list := s2.List()
	if len(list) != len(kinds)*3 {
		t.Fatalf("entries = %d, want %d", len(list), len(kinds)*3)
	}
	for i := 1; i < len(list); i++ {
		a, b := list[i-1], list[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Key.A > b.Key.A) {
			t.Fatalf("list order violated at %d: %v >= %v", i, a, b)
		}
	}
	for _, e := range list {
		if _, err := s2.Get(e.Kind, e.Key); err != nil {
			t.Fatalf("get %s %v: %v", e.Kind, e.Key, err)
		}
	}
}

// TestHas: presence checks don't count as traffic.
func TestHas(t *testing.T) {
	s := open(t, t.TempDir())
	mustPut(t, s, KindProfile, Key{A: 1}, blob(1, 10))
	if !s.Has(KindProfile, Key{A: 1}) || s.Has(KindProfile, Key{A: 2}) {
		t.Fatal("Has answered wrong")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Has counted traffic: %+v", st)
	}
}

func TestErrorStringsNameTheKey(t *testing.T) {
	s := open(t, t.TempDir())
	_, err := s.Get(KindPackageSet, Key{A: 0xabc, B: 0xdef})
	want := fmt.Sprintf("%016x", 0xabc)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("miss error %q does not name the key", err)
	}
}

// TestPutHashes: Put's one pass over a blob gives Entry.Hash the blob's
// hash64 and every chunk key its chunk's hash64, at every size around the
// chunk boundaries, and identical content put again adds no chunk, under
// the same key or another.
func TestPutHashes(t *testing.T) {
	s := open(t, t.TempDir())
	for i, n := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3 * chunkSize} {
		data := blob(byte(i), n)
		k := Key{A: uint64(n)}
		mustPut(t, s, KindProfile, k, data)
		var e Entry
		for _, le := range s.List() {
			if le.Key == k {
				e = le
			}
		}
		if e.Hash != hash64(data) || e.Size != int64(n) {
			t.Fatalf("size %d: entry hash %016x size %d, want %016x size %d", n, e.Hash, e.Size, hash64(data), n)
		}
		if want := max(1, (n+chunkSize-1)/chunkSize); len(e.Chunks) != want {
			t.Fatalf("size %d: %d chunks, want %d", n, len(e.Chunks), want)
		}
		for j, ck := range e.Chunks {
			if chunk := data[j*chunkSize : min((j+1)*chunkSize, n)]; ck != hash64(chunk) {
				t.Errorf("size %d: chunk %d key %016x, want %016x", n, j, ck, hash64(chunk))
			}
		}
		before := s.Stats()
		mustPut(t, s, KindProfile, k, data)
		mustPut(t, s, KindRegion, k, data)
		if after := s.Stats(); after.Chunks != before.Chunks || after.MemBytes != before.MemBytes {
			t.Errorf("size %d: identical content put again grew the chunks from %d (%d bytes) to %d (%d bytes)",
				n, before.Chunks, before.MemBytes, after.Chunks, after.MemBytes)
		}
	}
}
