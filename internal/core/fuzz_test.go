package core

import (
	"bytes"
	"testing"
)

// FuzzDecodePackageSet feeds DecodePackageSet arbitrary bytes. It must
// never panic, and any set it accepts must reach a fixed point: its
// EncodeJSON output decodes again and re-encodes to the same bytes. The
// seed corpus (testdata/fuzz/FuzzDecodePackageSet) holds the package set
// the pipeline builds, with -equiv certificates, for testdata/twophase.vpasm.
func FuzzDecodePackageSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := DecodePackageSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ps.EncodeJSON(&first); err != nil {
			t.Fatalf("encode accepted set: %v", err)
		}
		again, err := DecodePackageSet(bytes.NewReader(first.Bytes()))
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
