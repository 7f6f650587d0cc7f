package cas

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

// pinnedSchema, pinnedPacked and pinnedTiming pin the timing model:
// pinnedTiming is its output for m88ksim's packed program (input A,
// scale 1, core.ScaledConfig, packed image hash pinnedPacked) on
// cpu.DefaultConfig, recorded under evaluation schema pinnedSchema.
// Stored evaluation records replay this model's output, so the schema
// and the model move together.
const (
	pinnedSchema = "vpcas/evaluation/v1 timing/v1"
	pinnedPacked = 0x546d877ab9f708b7
)

var pinnedTiming = cpu.TimingStats{
	Cycles:         3685700,
	Insts:          1996701,
	PackageInsts:   1895721,
	CondBranches:   90630,
	CondMispredict: 19417,
	BTBMisses:      360,
	RASMisses:      225,
	L1IAccesses:    291078,
	L1IMisses:      1031,
	L1DAccesses:    570934,
	L1DMisses:      137,
	L2Accesses:     1168,
	L2Misses:       1168,
	FetchBreaks:    38523,
	RAWStalls:      3415230,
}

// TestTimingModelPinned times one fixed packed program and compares the
// result to the values pinned next to the schema. A timing-model change
// fails it until evaluationSchema is bumped (so no stored record of the
// old model replays) and the values are re-pinned. A pipeline change
// that packs a different program fails it on the image hash first.
func TestTimingModelPinned(t *testing.T) {
	_, _, _, _, set := pipelineArtifacts(t)
	packed, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	img, err := packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if h := core.ImageHash(img); h != pinnedPacked {
		t.Fatalf("the pinned program changed (packed image %#x, pinned %#x): the pipeline packs m88ksim differently, so re-pin pinnedPacked and pinnedTiming, and bump evaluationSchema only if the timing model changed too", h, uint64(pinnedPacked))
	}
	got, _, err := cpu.RunTimedCached(cpu.DefaultConfig(), img, 0, cpu.NewBlockCache(img))
	if err != nil {
		t.Fatal(err)
	}
	if got != pinnedTiming || evaluationSchema != pinnedSchema {
		t.Fatalf("the timing model's output moved: bump the timing part of evaluationSchema (now %q) so stored evaluation records of the old model stop replaying, then re-pin pinnedSchema and pinnedTiming\n got:    %+v\n pinned: %+v (under %q)",
			evaluationSchema, got, pinnedTiming, pinnedSchema)
	}
}

// TestEvaluationRecordGuards: a stored evaluation round trips across a
// reopen, and is refused for any other machine, config or PackedHash, or
// when its bytes are mangled.
func TestEvaluationRecordGuards(t *testing.T) {
	const prog, cfg, mach, packed = 0x11, 0x22, 0x33, 0x44
	ev := Evaluation{Stats: cpu.TimingStats{Cycles: 1000, Insts: 900, PackageInsts: 300}, DataHash: 0xfeed, DataStores: 7}
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.PutEvaluation(prog, cfg, mach, packed, ev); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir)
	got, err := s.GetEvaluation(prog, cfg, mach, packed)
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("evaluation = %+v, want %+v", got, ev)
	}
	for _, tc := range []struct {
		name                    string
		prog, cfg, mach, packed uint64
		want                    error
	}{
		{"other machine", prog, cfg, mach + 1, packed, ErrNotFound},
		{"other config", prog, cfg + 1, mach, packed, ErrNotFound},
		{"other packed hash", prog, cfg, mach, packed + 1, ErrCorrupt},
	} {
		if _, err := s.GetEvaluation(tc.prog, tc.cfg, tc.mach, tc.packed); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A record copied under another machine's key names its own machine.
	key := evaluationKey(prog, cfg, mach)
	data, err := s.Get(KindEvaluation, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindEvaluation, evaluationKey(prog, cfg, mach+1), data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetEvaluation(prog, cfg, mach+1, packed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mis-keyed record: err = %v, want ErrCorrupt", err)
	}
	for _, mangled := range [][]byte{
		data[:len(data)/2],
		bytes.Replace(data, []byte(evaluationSchema), []byte("vpcas/evaluation/v0"), 1),
		bytes.Replace(data, []byte(`"Cycles"`), []byte(`"Cycles0"`), 1),
		[]byte("null"),
	} {
		if err := s.Put(KindEvaluation, key, mangled); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetEvaluation(prog, cfg, mach, packed); !errors.Is(err, ErrCorrupt) {
			t.Errorf("mangled record %q: err = %v, want ErrCorrupt", mangled, err)
		}
	}
}

// TestPackageSetTextBlob: a stored package set keeps its packed text
// out of its JSON, in a raw blob under the same key; GetPackageSetMeta
// does not read the text but requires it, and GetPackageSet restores it.
func TestPackageSetTextBlob(t *testing.T) {
	cfg, imageHash, _, _, set := pipelineArtifacts(t)
	cfgHash := cfg.Hash()
	s := open(t, t.TempDir())
	if err := s.PutPackageSet(cfgHash, set); err != nil {
		t.Fatal(err)
	}
	key := Key{A: imageHash, B: cfgHash}
	raw, err := s.Get(KindPackageSet, key)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if string(fields["packed_asm"]) != `""` {
		t.Fatalf("stored set JSON carries packed_asm %.40s...", fields["packed_asm"])
	}
	text, err := s.Get(KindPackedText, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != set.PackedAsm || !strings.Contains(string(text), "\n") {
		t.Fatal("packed text blob is not the set's raw VPIR text")
	}

	meta, err := s.GetPackageSetMeta(imageHash, cfgHash)
	if err != nil {
		t.Fatal(err)
	}
	if meta.PackedAsm != "" || meta.PackedHash != set.PackedHash {
		t.Fatalf("meta lookup: %d text bytes, packed hash %016x; want none, %016x", len(meta.PackedAsm), meta.PackedHash, set.PackedHash)
	}
	full, err := s.GetPackageSet(imageHash, cfgHash)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := set.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := full.EncodeJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("GetPackageSet does not restore the EncodeJSON form")
	}

	// Without its text the set is not served at all.
	dst := open(t, t.TempDir())
	if err := dst.Put(KindPackageSet, key, raw); err != nil {
		t.Fatal(err)
	}
	for name, get := range map[string]func(uint64, uint64) (*core.PackageSet, error){
		"GetPackageSetMeta": dst.GetPackageSetMeta, "GetPackageSet": dst.GetPackageSet,
	} {
		if _, err := get(imageHash, cfgHash); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s without the text blob: err = %v, want ErrNotFound", name, err)
		}
	}
}

// FuzzDecodeEvaluation fuzzes the evaluation-record decoder. The seed
// corpus (testdata/fuzz/FuzzDecodeEvaluation) holds a record that
// RunSuite stored for one suite variant. A mangled record must be refused with ErrCorrupt,
// never panic, and any record the decoder accepts must re-encode to a
// fixed point.
func FuzzDecodeEvaluation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeEvaluation(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
			}
			return
		}
		first, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("encode accepted record: %v", err)
		}
		again, err := decodeEvaluation(first)
		if err != nil {
			t.Fatalf("decode own encoding: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
