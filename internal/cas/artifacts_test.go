package cas

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/prog"
	"repro/internal/workload"
)

// pipelineArtifacts runs the staged pipeline once on a small benchmark
// and returns every stage artifact plus the image hash.
func pipelineArtifacts(t *testing.T) (cfg core.Config, imageHash uint64, pa *core.ProfileArtifact, ra *core.RegionArtifact, set *core.PackageSet) {
	t.Helper()
	cfg = core.ScaledConfig()
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	p := b.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	imageHash = core.ImageHash(img)
	pa, err = core.ProfileStage(cfg, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	ra, err = core.RegionStage(cfg, img, pa)
	if err != nil {
		t.Fatal(err)
	}
	set, err = core.PackageStage(cfg, p, img, ra)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, imageHash, pa, ra, set
}

// TestArtifactRoundTrips: each typed wrapper stores and recovers its
// artifact across a store reopen, with provenance intact.
func TestArtifactRoundTrips(t *testing.T) {
	cfg, imageHash, pa, ra, set := pipelineArtifacts(t)
	dir := t.TempDir()
	s := open(t, dir)
	cfgHash := cfg.Hash()
	mc := cpu.DefaultConfig()
	base := cpu.TimingStats{Cycles: 123, Insts: 456}
	if err := s.PutProfileArtifact(imageHash, cfg.ProfileKey(), pa); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBaseline(imageHash, MachineKey(mc), base); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRegionArtifact(cfgHash, ra); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPackageSet(cfgHash, set); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	gotPA, err := s2.GetProfileArtifact(imageHash, cfg.ProfileKey())
	if err != nil {
		t.Fatal(err)
	}
	if gotPA.Stats != pa.Stats || len(gotPA.DB().Phases) != len(pa.DB().Phases) {
		t.Fatal("profile artifact did not round trip")
	}
	gotBase, err := s2.GetBaseline(imageHash, MachineKey(mc))
	if err != nil {
		t.Fatal(err)
	}
	if gotBase != base {
		t.Fatalf("baseline = %+v, want %+v", gotBase, base)
	}
	gotRA, err := s2.GetRegionArtifact(imageHash, cfgHash)
	if err != nil {
		t.Fatal(err)
	}
	if gotRA.NumRegions() != ra.NumRegions() {
		t.Fatalf("regions = %d, want %d", gotRA.NumRegions(), ra.NumRegions())
	}
	gotSet, err := s2.GetPackageSet(imageHash, cfgHash)
	if err != nil {
		t.Fatal(err)
	}
	if gotSet.Stats != set.Stats {
		t.Fatalf("pack stats = %+v, want %+v", gotSet.Stats, set.Stats)
	}
	// The recovered set materializes to the same packed image.
	p2, err := gotSet.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	img2, err := p2.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if core.ImageHash(img2) != gotSet.PackedHash {
		t.Fatal("materialized image hash != PackedHash")
	}
}

// TestWrongKeyGuards: an index redirected to the wrong blob (simulated
// by storing under a different key) is rejected by the decoded
// artifact's own provenance, wrapped as ErrCorrupt.
func TestWrongKeyGuards(t *testing.T) {
	cfg, imageHash, pa, _, _ := pipelineArtifacts(t)
	s := open(t, t.TempDir())
	// Store the artifact under a key that does not match its provenance.
	if err := s.PutProfileArtifact(imageHash, cfg.ProfileKey(), pa); err != nil {
		t.Fatal(err)
	}
	data, err := s.Get(KindProfile, Key{A: imageHash, B: cfg.ProfileKey()})
	if err != nil {
		t.Fatal(err)
	}
	wrong := Key{A: imageHash + 1, B: cfg.ProfileKey()}
	if err := s.Put(KindProfile, wrong, data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetProfileArtifact(wrong.A, wrong.B); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mis-keyed profile error = %v, want ErrCorrupt", err)
	}
}

// TestPhaselessProfileMisses: a stored profile blob with schema, hashes
// and stats but no phases, under the right key and next to a valid
// baseline, is corrupt. ProfileTimed must miss on it and profile again,
// and the fresh artifact must carry a live phase database.
func TestPhaselessProfileMisses(t *testing.T) {
	cfg, mc := core.ScaledConfig(), cpu.DefaultConfig()
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	imageHash, profileKey := core.ImageHash(img), cfg.ProfileKey()
	s := open(t, t.TempDir())
	phaseless := fmt.Sprintf(`{"schema": %q, "program_hash": "%d", "profile_key": "%d", "stats": {"insts": "1"}}`,
		core.ProfileArtifactSchema, imageHash, profileKey)
	mustPut(t, s, KindProfile, Key{A: imageHash, B: profileKey}, []byte(phaseless))
	if err := s.PutBaseline(imageHash, MachineKey(mc), cpu.TimingStats{Cycles: 2, Insts: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetProfileArtifact(imageHash, profileKey); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("phaseless profile error = %v, want ErrCorrupt", err)
	}

	pa, base, hit, err := ProfileTimed(s, cfg, mc, img, obs.Nop{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("ProfileTimed served the phaseless profile")
	}
	if pa.DB() == nil || pa.Stats.Insts <= 1 || base.Insts != pa.Stats.Insts {
		t.Fatalf("re-profiled artifact not fresh: DB %v, stats %+v, base insts %d", pa.DB(), pa.Stats, base.Insts)
	}
	if _, _, hit, err := ProfileTimed(s, cfg, mc, img, obs.Nop{}); err != nil || !hit {
		t.Fatalf("the fresh profile was not written through: hit %v, err %v", hit, err)
	}
}

// TestConfigHashSeparatesVariants: the four paper variants share one
// ProfileKey but have four distinct full-config hashes, the Verify knob
// and Pack.Verify hook do not perturb the hash, and every other leaf field
// of Config does.
func TestConfigHashSeparatesVariants(t *testing.T) {
	base := core.ScaledConfig()
	seenCfg := map[uint64]bool{}
	seenProfile := map[uint64]bool{}
	for _, v := range core.Variants() {
		cfg := v.Apply(base)
		seenCfg[cfg.Hash()] = true
		seenProfile[cfg.ProfileKey()] = true
	}
	if len(seenCfg) != 4 {
		t.Fatalf("variant config hashes = %d distinct, want 4", len(seenCfg))
	}
	if len(seenProfile) != 1 {
		t.Fatalf("variant profile keys = %d distinct, want 1", len(seenProfile))
	}
	// Verify hook set: same hash (a func identity is not configuration).
	hooked := base
	hooked.Pack.Verify = func(*prog.Program, *pack.Result) error { return nil }
	if base.Hash() != hooked.Hash() {
		t.Fatal("Pack.Verify hook perturbed Config.Hash")
	}
	// One perturbation per leaf field, found by reflection: each must move
	// the hash, except the Verify gate (verification never changes
	// outputs).
	var walk func(typ reflect.Type, index []int, path string)
	walk = func(typ reflect.Type, index []int, path string) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			idx, name := append(slices.Clone(index), i), path+sf.Name
			if sf.Type.Kind() == reflect.Struct {
				walk(sf.Type, idx, name+".")
				continue
			}
			cfg := base
			f := reflect.ValueOf(&cfg).Elem().FieldByIndex(idx)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.Func:
				if name != "Pack.Verify" {
					t.Errorf("%s: func field not excluded from Config.Hash", name)
				}
				continue
			default:
				t.Errorf("%s: no perturbation for kind %v", name, f.Kind())
				continue
			}
			if moved := cfg.Hash() != base.Hash(); moved != (name != "Verify") {
				t.Errorf("%s perturbed: hash moved = %v", name, moved)
			}
		}
	}
	walk(reflect.TypeOf(base), nil, "")
}

// TestPipelineObserved: the store-aware single-program pipeline emits a
// trace byte-identical to core.RunObserved on a cold run, and a warm
// rerun reuses the stored profile and baseline without a profile span
// while producing the same packed program, the same baseline and the
// same evaluation.
func TestPipelineObserved(t *testing.T) {
	cfg, mc := core.ScaledConfig(), cpu.DefaultConfig()
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1

	recPlain := obs.NewRecorder()
	if _, err := core.RunObserved(cfg, mc, b.Build(in), recPlain); err != nil {
		t.Fatal(err)
	}

	s := open(t, t.TempDir())
	recCold := obs.NewRecorder()
	outCold, err := PipelineObserved(s, cfg, mc, b.Build(in), recCold)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON := normalizedJSON(t, recPlain)
	coldJSON := normalizedJSON(t, recCold)
	if string(plainJSON) != string(coldJSON) {
		t.Fatal("cold store-aware trace differs from storeless trace")
	}

	recWarm := obs.NewRecorder()
	outWarm, err := PipelineObserved(s, cfg, mc, b.Build(in), recWarm)
	if err != nil {
		t.Fatal(err)
	}
	warm := recWarm.Export()
	for _, st := range warm.SpanTotals() {
		if st.Name == obs.StageProfile {
			t.Fatal("warm run executed the profile stage")
		}
	}
	if outWarm.Profile != outCold.Profile || len(outWarm.Pack.Packages) != len(outCold.Pack.Packages) {
		t.Fatal("warm outcome differs from cold")
	}
	if outWarm.Base != outCold.Base {
		t.Fatalf("warm baseline %+v, cold %+v", outWarm.Base, outCold.Base)
	}
	warmImg, err := outWarm.Packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	coldImg, err := outCold.Packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if core.ImageHash(warmImg) != core.ImageHash(coldImg) {
		t.Fatal("warm packed image differs from cold")
	}
	evCold, err := outCold.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	evWarm, err := outWarm.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if *evWarm != *evCold || !evWarm.Equivalent {
		t.Fatalf("warm evaluation %+v, cold %+v", *evWarm, *evCold)
	}
}

func normalizedJSON(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Export().Normalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
