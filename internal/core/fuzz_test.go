package core

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// fuzzFixedPoint feeds decode arbitrary bytes. It must never panic, and
// any value it accepts must reach a fixed point: its EncodeJSON output
// decodes again and re-encodes to the same bytes. accepted, when non-nil,
// checks each accepted value further.
func fuzzFixedPoint[T interface{ EncodeJSON(io.Writer) error }](f *testing.F, decode func(io.Reader) (T, error), accepted func(*testing.T, T)) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if accepted != nil {
			accepted(t, v)
		}
		var first bytes.Buffer
		if err := v.EncodeJSON(&first); err != nil {
			t.Fatalf("encode accepted value: %v", err)
		}
		again, err := decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode own encoding: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.EncodeJSON(&second); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzDecodePackageSet fuzzes DecodePackageSet. The seed corpus
// (testdata/fuzz/FuzzDecodePackageSet) holds the package set the pipeline
// builds, with -equiv certificates, for testdata/twophase.vpasm, and a
// small set whose program and packed text hold the characters JSON
// escapes (<, &, ", \, a tab, U+2028). Every accepted set must encode
// and hash exactly as the encoding/json reference does.
func FuzzDecodePackageSet(f *testing.F) {
	fuzzFixedPoint(f, DecodePackageSet, func(t *testing.T, ps *PackageSet) { checkEncode(t, ps) })
}

// FuzzDecodeProfileArtifact fuzzes DecodeProfileArtifact. The seed
// corpus holds the profile artifact of testdata/twophase.vpasm, its
// detection timeline collapsed to the three phase changes. An accepted
// artifact must also materialize its live database, and that database
// must snapshot back to the phases the artifact carries.
func FuzzDecodeProfileArtifact(f *testing.F) {
	fuzzFixedPoint(f, DecodeProfileArtifact, func(t *testing.T, pa *ProfileArtifact) {
		db := pa.DB()
		if db == nil {
			t.Fatal("accepted artifact has no live database")
		}
		got, err := json.Marshal(db.Snapshot())
		if err != nil {
			t.Fatalf("encode live database: %v", err)
		}
		want, err := json.Marshal(pa.Phases)
		if err != nil {
			t.Fatalf("encode phases: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("live database snapshots to other phases:\n got: %s\nwant: %s", got, want)
		}
	})
}

// FuzzDecodeRegionArtifact fuzzes DecodeRegionArtifact. The seed corpus
// holds the region artifact of testdata/twophase.vpasm: its three phases'
// regions, whose hash the provenance seed chains.
func FuzzDecodeRegionArtifact(f *testing.F) { fuzzFixedPoint(f, DecodeRegionArtifact, nil) }

// FuzzDecodeProvenance fuzzes DecodeProvenance. The seed corpus holds a
// provenance record chaining testdata/twophase.vpasm's profile, region
// and package-set hashes.
func FuzzDecodeProvenance(f *testing.F) { fuzzFixedPoint(f, DecodeProvenance, nil) }
