// Garbage collection: size/age-based entry eviction with chunk
// refcounting from the manifest, followed by segment compaction. GC is
// the only operation that deletes segment files, and it does so only
// after the rewritten segment and manifest are durable — a crash
// mid-collection leaves either the old store or the new one, never a
// mix.
package cas

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// GCResult summarizes one collection.
type GCResult struct {
	// ReclaimedBytes is the drop in segment-file bytes (framing
	// included); DroppedEntries how many index entries were evicted.
	ReclaimedBytes int64
	DroppedEntries int
	// LiveEntries and LiveBytes describe the store after collection.
	LiveEntries int
	LiveBytes   int64
}

// GC evicts entries and compacts segments. maxAge > 0 evicts entries
// older than it; maxBytes > 0 then evicts oldest-first until the live
// payload fits the budget. Chunks are refcounted from the surviving
// entries: a chunk still referenced by any live entry survives even if
// other entries sharing it were evicted. Zero values disable the
// respective policy; GC(0, 0) only compacts garbage left by
// overwrites.
func (s *Store) GC(maxBytes int64, maxAge time.Duration) (GCResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res GCResult
	if s.closed {
		return res, fmt.Errorf("cas: gc: store closed")
	}
	// Spill the memtable first so collection reasons about one tier.
	if len(s.mem) > 0 {
		if err := s.writeSegmentLocked(); err != nil {
			return res, err
		}
	}

	// Eviction: age first, then size, oldest first. chunkBytes approximates
	// an entry's disk share as the summed size of chunks it references;
	// shared chunks are charged to every referent, so the size policy is
	// conservative (never evicts less than needed).
	now := s.now().Unix()
	ordered := s.listLocked()
	live := make([]*Entry, 0, len(ordered))
	for _, e := range ordered {
		if maxAge > 0 && now-e.Created > int64(maxAge/time.Second) {
			res.DroppedEntries++
			continue
		}
		live = append(live, e)
	}
	if maxBytes > 0 {
		byAge := append([]*Entry(nil), live...)
		// listLocked orders by kind/key; re-order oldest first for the
		// size policy (ties broken by the deterministic kind/key order).
		for i := 1; i < len(byAge); i++ {
			for j := i; j > 0 && byAge[j].Created < byAge[j-1].Created; j-- {
				byAge[j], byAge[j-1] = byAge[j-1], byAge[j]
			}
		}
		var total int64
		for _, e := range byAge {
			total += e.Size
		}
		drop := make(map[*Entry]bool)
		for _, e := range byAge {
			if total <= maxBytes {
				break
			}
			drop[e] = true
			total -= e.Size
			res.DroppedEntries++
		}
		if len(drop) > 0 {
			kept := live[:0]
			for _, e := range live {
				if !drop[e] {
					kept = append(kept, e)
				}
			}
			live = kept
		}
	}

	// Refcount chunks from the survivors.
	refs := make(map[uint64]int)
	for _, e := range live {
		for _, ck := range e.Chunks {
			refs[ck]++
		}
	}
	var before int64
	for _, seg := range s.segments {
		before += seg.bytes
	}
	garbage := false
	for ck := range s.chunks {
		if refs[ck] == 0 {
			garbage = true
			break
		}
	}
	if res.DroppedEntries == 0 && !garbage {
		// Nothing to collect; keep the segments as they are.
		s.stats.GCRuns++
		res.LiveEntries = len(live)
		for _, e := range live {
			res.LiveBytes += e.Size
		}
		return res, nil
	}

	// Compact: read every live chunk (verifying checksums — GC refuses to
	// propagate corruption), rewrite them as fresh memtable contents, drop
	// the old segments and flush. An entry whose chunks cannot be read is
	// evicted rather than failing the collection.
	data := make(map[uint64][]byte, len(refs))
	kept := live[:0]
	for _, e := range live {
		ok := true
		for _, ck := range e.Chunks {
			if _, have := data[ck]; have {
				continue
			}
			chunk, err := s.readChunkLocked(ck)
			if err != nil {
				ok = false
				break
			}
			data[ck] = chunk
		}
		if !ok {
			res.DroppedEntries++
			continue
		}
		kept = append(kept, e)
	}
	live = kept

	// Rebuild the index around the survivors.
	oldSegments, oldChunks := s.segments, s.chunks
	s.segments = nil
	s.chunks = make(map[uint64]chunkRef, len(data))
	s.mem = make(map[uint64][]byte, len(data))
	s.memBytes = 0
	s.entries = make(map[entryKey]*Entry, len(live))
	for _, e := range live {
		s.entries[entryKey{kind: e.Kind, key: e.Key}] = e
		for _, ck := range e.Chunks {
			if _, ok := s.mem[ck]; ok {
				continue
			}
			chunk := data[ck]
			s.mem[ck] = chunk
			s.memBytes += int64(len(chunk))
			// The CRC was checked when the chunk was read back.
			s.chunks[ck] = chunkRef{seg: -1, n: uint32(len(chunk)), crc: oldChunks[ck].crc}
		}
	}
	s.dirty = true
	if err := s.flushLocked(); err != nil {
		return res, err
	}
	// Old segments are garbage only once the new manifest is durable.
	for _, seg := range oldSegments {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
		os.Remove(filepath.Join(s.dir, seg.name))
	}
	if err := syncDir(s.dir); err != nil {
		return res, err
	}

	var after int64
	for _, seg := range s.segments {
		after += seg.bytes
	}
	res.ReclaimedBytes = before - after
	if res.ReclaimedBytes < 0 {
		res.ReclaimedBytes = 0
	}
	res.LiveEntries = len(s.entries)
	for _, e := range s.entries {
		res.LiveBytes += e.Size
	}
	s.stats.GCRuns++
	s.stats.GCDroppedEntries += uint64(res.DroppedEntries)
	s.stats.GCReclaimedBytes += uint64(res.ReclaimedBytes)
	return res, nil
}
