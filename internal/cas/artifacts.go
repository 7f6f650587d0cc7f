// Typed artifact surface: the kind constants and encode/decode wrappers
// that map the pipeline's stage artifacts (internal/core's stable JSON
// codecs) onto the store's generic (kind, Key) → blob interface, plus
// the key-scheme helpers the callers share.
//
// Key scheme (DESIGN.md §15):
//
//	profile      (ImageHash, ProfileKey)        → ProfileArtifact JSON
//	baseline     (ImageHash, MachineKey)        → baseline TimingStats JSON
//	region       (ProgramHash, ConfigHash)      → RegionArtifact JSON
//	packageset   (ProgramHash, ConfigHash)      → PackageSet JSON, packed_asm empty
//	packedtext   (ProgramHash, ConfigHash)      → the set's packed VPIR text, raw
//	evaluation   (ProgramHash, EvalKey)         → the set's timed result JSON
//	daemon/version    (NameKey, version)        → PackageSet JSON
//	daemon/provenance (NameKey, version)        → Provenance JSON
//
// EvalKey combines ConfigHash with MachineKey. The packed text is keyed
// by its package set, not by PackedHash: ImageHash omits the package
// marks, so two distinct packed programs can share a PackedHash. Equal
// texts still share chunks, since each starts at offset 0 of its blob.
//
// Every Get re-checks the decoded artifact's own provenance hashes
// against the requested key, so a store whose index was tampered with
// (or a raw hash collision) degrades to a miss, never a wrong-artifact
// hit.
package cas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/cpu"
)

// Artifact kinds in the index.
const (
	KindProfile    = "profile"
	KindBaseline   = "baseline"
	KindRegion     = "region"
	KindPackageSet = "packageset"
	KindPackedText = "packedtext"
	KindEvaluation = "evaluation"
	KindVersion    = "daemon/version"
	KindProv       = "daemon/provenance"
)

// Kinds lists every artifact kind, in key-scheme order.
var Kinds = []string{KindProfile, KindBaseline, KindRegion, KindPackageSet, KindPackedText, KindEvaluation, KindVersion, KindProv}

// baselineSchema marks the baseline-timing blob codec.
const baselineSchema = "vpcas/baseline/v1"

// baselineBlob wraps a profiling run's baseline TimingStats with enough
// provenance to reject a stale or mis-keyed hit.
type baselineBlob struct {
	Schema  string          `json:"schema"`
	Image   uint64          `json:"image,string"`
	Machine uint64          `json:"machine,string"`
	Stats   cpu.TimingStats `json:"stats"`
}

// MachineKey returns a canonical hash of the timing-machine
// configuration; baseline timings are only reusable on an identical
// machine model.
func MachineKey(mc cpu.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", mc)
	return h.Sum64()
}

// NameKey hashes a program name into key space (the daemon's publication
// index is per program name, not per content).
func NameKey(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// PutProfileArtifact stores a stage-1 profile under
// (ImageHash, ProfileKey).
func (s *Store) PutProfileArtifact(imageHash, profileKey uint64, pa *core.ProfileArtifact) error {
	var buf bytes.Buffer
	if err := pa.EncodeJSON(&buf); err != nil {
		return err
	}
	return s.Put(KindProfile, Key{A: imageHash, B: profileKey}, buf.Bytes())
}

// GetProfileArtifact fetches a stage-1 profile, verifying the decoded
// artifact's own provenance against the requested key.
func (s *Store) GetProfileArtifact(imageHash, profileKey uint64) (*core.ProfileArtifact, error) {
	data, err := s.Get(KindProfile, Key{A: imageHash, B: profileKey})
	if err != nil {
		return nil, err
	}
	pa, err := core.DecodeProfileArtifact(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cas: profile %016x/%016x: %v: %w", imageHash, profileKey, err, ErrCorrupt)
	}
	if pa.ProgramHash != imageHash || pa.ProfileKey != profileKey {
		return nil, fmt.Errorf("cas: profile %016x/%016x: artifact claims %016x/%016x: %w",
			imageHash, profileKey, pa.ProgramHash, pa.ProfileKey, ErrCorrupt)
	}
	return pa, nil
}

// PutBaseline stores the baseline timing collected alongside a profile
// pass under (ImageHash, MachineKey).
func (s *Store) PutBaseline(imageHash, machineKey uint64, st cpu.TimingStats) error {
	data, err := json.Marshal(baselineBlob{
		Schema: baselineSchema, Image: imageHash, Machine: machineKey, Stats: st,
	})
	if err != nil {
		return err
	}
	return s.Put(KindBaseline, Key{A: imageHash, B: machineKey}, data)
}

// GetBaseline fetches a stored baseline timing.
func (s *Store) GetBaseline(imageHash, machineKey uint64) (cpu.TimingStats, error) {
	data, err := s.Get(KindBaseline, Key{A: imageHash, B: machineKey})
	if err != nil {
		return cpu.TimingStats{}, err
	}
	var b baselineBlob
	if err := json.Unmarshal(data, &b); err != nil {
		return cpu.TimingStats{}, fmt.Errorf("cas: baseline %016x/%016x: %v: %w", imageHash, machineKey, err, ErrCorrupt)
	}
	if b.Schema != baselineSchema || b.Image != imageHash || b.Machine != machineKey {
		return cpu.TimingStats{}, fmt.Errorf("cas: baseline %016x/%016x: provenance mismatch: %w",
			imageHash, machineKey, ErrCorrupt)
	}
	return b.Stats, nil
}

// PutRegionArtifact stores a stage-2 region artifact under
// (ProgramHash, ConfigHash).
func (s *Store) PutRegionArtifact(configHash uint64, ra *core.RegionArtifact) error {
	var buf bytes.Buffer
	if err := ra.EncodeJSON(&buf); err != nil {
		return err
	}
	return s.Put(KindRegion, Key{A: ra.ProgramHash, B: configHash}, buf.Bytes())
}

// GetRegionArtifact fetches a stage-2 region artifact.
func (s *Store) GetRegionArtifact(programHash, configHash uint64) (*core.RegionArtifact, error) {
	data, err := s.Get(KindRegion, Key{A: programHash, B: configHash})
	if err != nil {
		return nil, err
	}
	ra, err := core.DecodeRegionArtifact(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cas: region %016x/%016x: %v: %w", programHash, configHash, err, ErrCorrupt)
	}
	if ra.ProgramHash != programHash {
		return nil, fmt.Errorf("cas: region %016x/%016x: artifact claims program %016x: %w",
			programHash, configHash, ra.ProgramHash, ErrCorrupt)
	}
	return ra, nil
}

// PutPackageSet stores a stage-3 package set under
// (ProgramHash, ConfigHash): its JSON with an empty packed_asm, and its
// packed text as a raw packedtext blob under the same key.
func (s *Store) PutPackageSet(configHash uint64, ps *core.PackageSet) error {
	var buf bytes.Buffer
	text, err := ps.EncodeSplit(&buf)
	if err != nil {
		return err
	}
	key := Key{A: ps.ProgramHash, B: configHash}
	if err := s.Put(KindPackedText, key, []byte(text)); err != nil {
		return err
	}
	return s.Put(KindPackageSet, key, buf.Bytes())
}

// PutDaemonVersion stores one published daemon version — the encoded
// PackageSet exactly as served over /v1/packages — under
// (NameKey(name), version). The bytes are opaque here; recovery
// re-decodes them to check the program hash against the live program.
func (s *Store) PutDaemonVersion(name string, version int, encoded []byte) error {
	return s.Put(KindVersion, Key{A: NameKey(name), B: uint64(version)}, encoded)
}

// GetDaemonVersion fetches a published version's encoded PackageSet.
func (s *Store) GetDaemonVersion(name string, version int) ([]byte, error) {
	return s.Get(KindVersion, Key{A: NameKey(name), B: uint64(version)})
}

// PutDaemonProvenance stores a published version's build record under
// (NameKey(name), version).
func (s *Store) PutDaemonProvenance(name string, version int, prov *core.Provenance) error {
	var buf bytes.Buffer
	if err := prov.EncodeJSON(&buf); err != nil {
		return err
	}
	return s.Put(KindProv, Key{A: NameKey(name), B: uint64(version)}, buf.Bytes())
}

// GetDaemonProvenance fetches a published version's build record,
// verifying it describes the requested program and version.
func (s *Store) GetDaemonProvenance(name string, version int) (*core.Provenance, error) {
	data, err := s.Get(KindProv, Key{A: NameKey(name), B: uint64(version)})
	if err != nil {
		return nil, err
	}
	prov, err := core.DecodeProvenance(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cas: provenance %s/%d: %v: %w", name, version, err, ErrCorrupt)
	}
	if prov.Program != name || prov.Version != version {
		return nil, fmt.Errorf("cas: provenance %s/%d: record claims %s/%d: %w",
			name, version, prov.Program, prov.Version, ErrCorrupt)
	}
	return prov, nil
}

// GetPackageSet fetches a stage-3 package set with its packed text, so
// Materialize works on it.
func (s *Store) GetPackageSet(programHash, configHash uint64) (*core.PackageSet, error) {
	ps, err := s.GetPackageSetMeta(programHash, configHash)
	if err != nil {
		return nil, err
	}
	text, err := s.Get(KindPackedText, Key{A: programHash, B: configHash})
	if err != nil {
		return nil, err
	}
	ps.PackedAsm = string(text)
	return ps, nil
}

// GetPackageSetMeta fetches a stage-3 package set without reading its
// packed text: PackedAsm is empty, so the set cannot be materialized.
// The text entry must still exist (an index lookup), so no set is served
// whose program the store has lost.
func (s *Store) GetPackageSetMeta(programHash, configHash uint64) (*core.PackageSet, error) {
	key := Key{A: programHash, B: configHash}
	if !s.Has(KindPackedText, key) {
		return nil, fmt.Errorf("cas: packageset %016x/%016x: no packed text: %w", programHash, configHash, ErrNotFound)
	}
	data, err := s.Get(KindPackageSet, key)
	if err != nil {
		return nil, err
	}
	ps, err := core.DecodePackageSet(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cas: packageset %016x/%016x: %v: %w", programHash, configHash, err, ErrCorrupt)
	}
	if ps.ProgramHash != programHash {
		return nil, fmt.Errorf("cas: packageset %016x/%016x: artifact claims program %016x: %w",
			programHash, configHash, ps.ProgramHash, ErrCorrupt)
	}
	return ps, nil
}

// evaluationSchema marks the evaluation-record codec and names the
// timing model whose output a record holds. A change to the timed engine
// that moves any TimingStats must bump the timing part, or stored
// records would replay stale results; TestTimingModelPinned fails until
// it is bumped and re-pinned.
const evaluationSchema = "vpcas/evaluation/v1 timing/v1"

// Evaluation is a packed program's timed result on one machine: its
// timing statistics and the data-segment effects (hash and store count)
// that decide its equivalence with the profiled run.
type Evaluation struct {
	Stats      cpu.TimingStats `json:"stats"`
	DataHash   uint64          `json:"data_hash,string"`
	DataStores uint64          `json:"data_stores"`
}

// evaluationBlob wraps an Evaluation with the provenance that keys it:
// the program, config and machine hashes and the PackedHash of the
// package set it timed.
type evaluationBlob struct {
	Schema  string `json:"schema"`
	Image   uint64 `json:"image,string"`
	Config  uint64 `json:"config,string"`
	Machine uint64 `json:"machine,string"`
	Packed  uint64 `json:"packed,string"`
	Evaluation
}

// evaluationKey is the evaluation record's key: the package set's
// (ProgramHash, ConfigHash) with MachineKey folded into B.
func evaluationKey(programHash, configHash, machineKey uint64) Key {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x/%016x", configHash, machineKey)
	return Key{A: programHash, B: h.Sum64()}
}

// decodeEvaluation decodes an evaluation record and checks its schema;
// every failure wraps ErrCorrupt. Unknown fields are refused, so a record
// written under another TimingStats layout misses instead of replaying
// with a field zeroed.
func decodeEvaluation(data []byte) (evaluationBlob, error) {
	var b evaluationBlob
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return evaluationBlob{}, fmt.Errorf("cas: evaluation: %v: %w", err, ErrCorrupt)
	}
	if b.Schema != evaluationSchema {
		return evaluationBlob{}, fmt.Errorf("cas: evaluation: schema %q, want %q: %w", b.Schema, evaluationSchema, ErrCorrupt)
	}
	return b, nil
}

// PutEvaluation stores the timed result of the package set under
// (programHash, configHash), whose packed image hashes to packedHash, on
// the machine machineKey.
func (s *Store) PutEvaluation(programHash, configHash, machineKey, packedHash uint64, ev Evaluation) error {
	data, err := json.Marshal(evaluationBlob{
		Schema: evaluationSchema, Image: programHash, Config: configHash,
		Machine: machineKey, Packed: packedHash, Evaluation: ev,
	})
	if err != nil {
		return err
	}
	return s.Put(KindEvaluation, evaluationKey(programHash, configHash, machineKey), data)
}

// GetEvaluation fetches a stored timed result. The record must name the
// requested program, config, machine and packedHash, so a record of a
// rebuilt package set reads as ErrCorrupt, never as its result.
func (s *Store) GetEvaluation(programHash, configHash, machineKey, packedHash uint64) (Evaluation, error) {
	data, err := s.Get(KindEvaluation, evaluationKey(programHash, configHash, machineKey))
	if err != nil {
		return Evaluation{}, err
	}
	b, err := decodeEvaluation(data)
	if err != nil {
		return Evaluation{}, err
	}
	if b.Image != programHash || b.Config != configHash || b.Machine != machineKey || b.Packed != packedHash {
		return Evaluation{}, fmt.Errorf("cas: evaluation %016x/%016x: provenance mismatch: %w", programHash, configHash, ErrCorrupt)
	}
	return b.Evaluation, nil
}
