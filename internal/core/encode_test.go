package core

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// referenceEncode is the package set codec Encode replaced: json.Encoder
// with a one-space indent for the bytes, FNV-1a over json.Marshal for the
// hash. ps must be synced.
func referenceEncode(t *testing.T, ps *PackageSet) ([]byte, uint64) {
	t.Helper()
	type plain PackageSet
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode((*plain)(ps)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	compact, err := json.Marshal((*plain)(ps))
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	h := fnv.New64a()
	h.Write(compact)
	return buf.Bytes(), h.Sum64()
}

// checkEncode fails unless Encode, EncodeJSON and Hash agree with the
// reference codec on ps.
func checkEncode(t *testing.T, ps *PackageSet) {
	t.Helper()
	got, gotHash, err := ps.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want, wantHash := referenceEncode(t, ps)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode bytes differ from the reference:\n got: %q\nwant: %q", clip(got), clip(want))
	}
	if gotHash != wantHash {
		t.Fatalf("Encode hash %016x, reference %016x", gotHash, wantHash)
	}
	var buf bytes.Buffer
	if err := ps.EncodeJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("EncodeJSON differs from the reference (err %v)", err)
	}
	if h, err := ps.Hash(); err != nil || h != wantHash {
		t.Fatalf("Hash %016x (err %v), reference %016x", h, err, wantHash)
	}
}

// clip keeps a failure message readable: the packed text runs to
// hundreds of kilobytes.
func clip(b []byte) []byte {
	if len(b) > 400 {
		return append(b[:200:200], append([]byte(" ... "), b[len(b)-200:]...)...)
	}
	return b
}

// TestEncodeMatchesReference builds the package set of every suite input
// with translation validation off and on, and checks Encode against the
// reference codec: byte for byte, trailing newline included, and hash
// for hash. Each set is checked again with characters JSON escapes (the
// HTML ones and U+2028 included) added to its program name and packed
// text, which the pipeline's own text never holds. The region hash
// Encode stamps is the region artifact's own.
func TestEncodeMatchesReference(t *testing.T) {
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			t.Run(b.Name+"/"+in.Name, func(t *testing.T) {
				in.Scale = 1
				p := b.Build(in)
				img, err := p.Linearize()
				if err != nil {
					t.Fatal(err)
				}
				cfg := ScaledConfig()
				pa, err := ProfileStage(cfg, img, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, eq := range []bool{false, true} {
					cfg.Equiv = eq
					clone := p.Clone()
					cimg, err := clone.Linearize()
					if err != nil {
						t.Fatal(err)
					}
					ra, err := RegionStage(cfg, cimg, pa)
					if err != nil {
						t.Fatal(err)
					}
					set, err := PackageStage(cfg, clone, cimg, ra)
					if err != nil {
						t.Fatalf("equiv %v: %v", eq, err)
					}
					set.Program = b.Name
					checkEncode(t, set)
					if rh, err := ra.Hash(); err != nil || set.RegionHash != rh {
						t.Fatalf("equiv %v: set region hash %016x, region artifact %016x (%v)", eq, set.RegionHash, rh, err)
					}
					set.Program += " <a&b> \"q\" \\ \t \u2028"
					set.PackedAsm += "; <a&b> \"q\" \\ \t \u2028\n"
					checkEncode(t, set)
				}
			})
		}
	}
}
