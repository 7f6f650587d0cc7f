package report

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// storeOpts builds a small-suite Options bound to a store.
func storeOpts(t *testing.T, dir string, o obs.Observer) (Options, *cas.Store) {
	t.Helper()
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim"},
		ScaleOverride: 1,
		Observer:      o,
		Store:         s,
	}, s
}

// stripElapsed zeroes wall-clock fields so suites compare structurally.
func stripElapsed(s *Suite) *Suite {
	cp := *s
	cp.Elapsed = 0
	cp.Results = append([]InputResult(nil), s.Results...)
	for i := range cp.Results {
		cp.Results[i].Elapsed = 0
	}
	return &cp
}

// TestRunSuiteStoreWarm is the acceptance test for the warm path: a
// cold store-backed run misses everything and writes through; the warm
// rerun hits everything — store hits == expected, zero misses — and
// executes zero profile, region, package and evaluate stages (every
// variant replays its evaluation record, so no timed run, memo lookup
// or engine counter appears), with results bit-identical to the cold
// run.
func TestRunSuiteStoreWarm(t *testing.T) {
	dir := t.TempDir()

	recCold := obs.NewRecorder()
	optsCold, st := storeOpts(t, dir, recCold)
	cold, err := RunSuite(optsCold)
	if err != nil {
		t.Fatal(err)
	}
	// m88ksim has one input and four variants.
	if cold.StoreProfileMisses != 1 || cold.StorePackageMisses != 4 {
		t.Fatalf("cold misses = %d/%d, want 1/4", cold.StoreProfileMisses, cold.StorePackageMisses)
	}
	if cold.StoreProfileHits != 0 || cold.StorePackageHits != 0 {
		t.Fatalf("cold hits = %d/%d, want 0/0", cold.StoreProfileHits, cold.StorePackageHits)
	}
	if cold.StoreBytes == 0 || cold.StoreSegments == 0 {
		t.Fatalf("cold run persisted nothing: %+v", cold)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm rerun against a fresh handle on the same directory.
	recWarm := obs.NewRecorder()
	optsWarm, _ := storeOpts(t, dir, recWarm)
	warm, err := RunSuite(optsWarm)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StoreProfileHits != 1 || warm.StorePackageHits != 4 {
		t.Fatalf("warm hits = %d/%d, want 1/4", warm.StoreProfileHits, warm.StorePackageHits)
	}
	if warm.StoreProfileMisses != 0 || warm.StorePackageMisses != 0 {
		t.Fatalf("warm misses = %d/%d, want 0/0", warm.StoreProfileMisses, warm.StorePackageMisses)
	}

	// The warm trace contains no profile/region/package/evaluate stage
	// spans — those stages never ran — and no simulation counter.
	warmTrace := recWarm.Export()
	for _, sp := range warmTrace.SpanTotals() {
		switch sp.Name {
		case obs.StageProfile, obs.StageRegion, obs.StagePackage, obs.StageLink, obs.StageOptimize, obs.StageFilter, obs.StageEvaluate:
			t.Errorf("warm run executed stage %q %d times", sp.Name, sp.Count)
		}
	}
	for name, n := range warmTrace.Metrics.Counters {
		if strings.HasPrefix(name, "eval_memo.") || strings.HasPrefix(name, "blockcache.") || strings.HasPrefix(name, "superblock.") {
			t.Errorf("warm run recorded %s = %d, want no simulation counter", name, n)
		}
	}
	if _, ok := warmTrace.Metrics.Histograms[obs.EvalCycles.Name]; ok {
		t.Errorf("warm run observed %s, want no timed run", obs.EvalCycles.Name)
	}
	coldTrace := recCold.Export()
	if n := coldTrace.Metrics.Counters[obs.EvalMemoMisses.Name]; n == 0 {
		t.Error("cold run timed nothing: the warm run's zero counters prove nothing")
	}
	if n := warmTrace.Metrics.Counters[obs.StoreMisses.Name]; n != 0 {
		t.Errorf("warm run recorded %d store.misses, want 0", n)
	}
	if n := warmTrace.Metrics.Counters[obs.StoreHits.Name]; n != 5 {
		t.Errorf("warm run recorded %d store.hits, want 5", n)
	}

	// Timed evaluation is deterministic, so warm results equal cold
	// results exactly — coverage, speedup, growth, equivalence, engine
	// counters, everything but wall time and the hit/miss tally itself.
	a, b := stripElapsed(cold), stripElapsed(warm)
	a.StoreProfileHits, a.StoreProfileMisses, a.StorePackageHits, a.StorePackageMisses = 0, 0, 0, 0
	b.StoreProfileHits, b.StoreProfileMisses, b.StorePackageHits, b.StorePackageMisses = 0, 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("warm suite differs from cold:\ncold: %+v\nwarm: %+v", a, b)
	}
}

// TestSuiteStoreServesPipeline: the suite and the single-program
// pipeline share one profile protocol. A store written by RunSuite serves
// cas.PipelineObserved with no profile span, the same baseline and the
// same evaluation as the suite's full variant; a store written by
// cas.PipelineObserved serves RunSuite's profile.
func TestSuiteStoreServesPipeline(t *testing.T) {
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in := b.Inputs[0]
	in.Scale = 1

	opts, st := storeOpts(t, t.TempDir(), nil)
	suite, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	out, err := cas.PipelineObserved(st, opts.Core, opts.Machine, b.Build(in), rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range rec.Export().SpanTotals() {
		if sp.Name == obs.StageProfile {
			t.Fatal("the pipeline profiled although the suite store holds the profile")
		}
	}
	ir := suite.Results[0]
	if out.Base != ir.Base {
		t.Fatalf("pipeline baseline %+v, suite %+v", out.Base, ir.Base)
	}
	ev, err := out.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	full := ir.Full()
	if ev.Coverage != full.Coverage || ev.Speedup != full.Speedup || !ev.Equivalent {
		t.Fatalf("pipeline evaluation %+v, suite variant %+v", *ev, *full)
	}

	opts, st = storeOpts(t, t.TempDir(), nil)
	if _, err := cas.PipelineObserved(st, opts.Core, opts.Machine, b.Build(in), obs.Nop{}); err != nil {
		t.Fatal(err)
	}
	if suite, err = RunSuite(opts); err != nil {
		t.Fatal(err)
	}
	if suite.StoreProfileHits != 1 || suite.StoreProfileMisses != 0 {
		t.Fatalf("suite on a pipeline store: profile hits/misses %d/%d, want 1/0",
			suite.StoreProfileHits, suite.StoreProfileMisses)
	}
}

// TestRunSuiteStoreMatchesStoreless: results with a store (cold) are
// bit-identical to results without one, and storeless runs report zero
// store traffic.
func TestRunSuiteStoreMatchesStoreless(t *testing.T) {
	plain, err := RunSuite(Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim"},
		ScaleOverride: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.StoreProfileHits+plain.StoreProfileMisses+plain.StorePackageHits+plain.StorePackageMisses != 0 {
		t.Fatalf("storeless run reported store traffic: %+v", plain)
	}
	opts, _ := storeOpts(t, t.TempDir(), nil)
	stored, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stripElapsed(plain), stripElapsed(stored)
	// Store fields differ by construction; compare the science.
	a.StoreProfileMisses, a.StorePackageMisses = 0, 0
	b.StoreProfileMisses, b.StorePackageMisses = 0, 0
	a.StoreBytes, a.StoreSegments = 0, 0
	b.StoreBytes, b.StoreSegments = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatal("store-backed cold results differ from storeless results")
	}
}

// copyStore copies every entry of the store in srcDir for which keep
// returns true into a fresh store at dstDir, and returns the new store.
func copyStore(t *testing.T, srcDir, dstDir string, keep func(cas.Entry) bool) *cas.Store {
	t.Helper()
	src, err := cas.Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := cas.Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	for _, e := range src.List() {
		if !keep(e) {
			continue
		}
		data, err := src.Get(e.Kind, e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Put(e.Kind, e.Key, data); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRunSuiteStoreFallback: a variant the store cannot replay whole — a
// missing region artifact or packed text, or an evaluation record the
// store cannot vouch for (its PackedHash disagrees with the set's, or it
// was timed on another machine) — counts one package miss and is rebuilt
// cold, writing all its entries through. Every case leaves the results
// equal to a storeless run's at -j 1 and -j 2, and heals the store: a
// second run on it replays every variant, building and timing nothing.
func TestRunSuiteStoreFallback(t *testing.T) {
	seedDir := t.TempDir()
	seed, st := storeOpts(t, seedDir, nil)
	if _, err := RunSuite(seed); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	otherMachine := seed.Machine
	otherMachine.MemLatency += 50
	storeless := map[cpu.Config]*Suite{}
	for _, mc := range []cpu.Config{seed.Machine, otherMachine} {
		opts := seed
		opts.Machine, opts.Store = mc, nil
		s, err := RunSuite(opts)
		if err != nil {
			t.Fatal(err)
		}
		storeless[mc] = s
	}
	if reflect.DeepEqual(stripElapsed(storeless[seed.Machine]).Results[0].Variants, stripElapsed(storeless[otherMachine]).Results[0].Variants) {
		t.Fatal("the other machine times m88ksim like the default one: a replayed record would go unnoticed")
	}

	// The store key of the first variant's region artifact and package set.
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in := b.Inputs[0]
	in.Scale = 1
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	key := cas.Key{A: core.ImageHash(img), B: core.Variants()[0].Apply(seed.Core).Hash()}
	copyAll := func(t *testing.T, dstDir string) *cas.Store {
		return copyStore(t, seedDir, dstDir, func(cas.Entry) bool { return true })
	}

	type counts struct{ profileHits, packageHits, packageMisses, packages, evaluates int }
	for _, tc := range []struct {
		name    string
		machine cpu.Config
		spoil   func(t *testing.T, dstDir string) *cas.Store
		want    counts
	}{
		{"packed hash mismatch", seed.Machine, func(t *testing.T, dstDir string) *cas.Store {
			dst := copyAll(t, dstDir)
			set, err := dst.GetPackageSet(key.A, key.B)
			if err != nil {
				t.Fatal(err)
			}
			set.PackedHash++
			if err := dst.PutPackageSet(key.B, set); err != nil {
				t.Fatal(err)
			}
			return dst
		}, counts{1, 3, 1, 1, 1}},
		{"missing region artifact", seed.Machine, func(t *testing.T, dstDir string) *cas.Store {
			return copyStore(t, seedDir, dstDir, func(e cas.Entry) bool {
				return e.Kind != cas.KindRegion || e.Key != key
			})
		}, counts{1, 3, 1, 1, 1}},
		{"missing packed text", seed.Machine, func(t *testing.T, dstDir string) *cas.Store {
			return copyStore(t, seedDir, dstDir, func(e cas.Entry) bool {
				return e.Kind != cas.KindPackedText || e.Key != key
			})
		}, counts{1, 3, 1, 1, 1}},
		{"evaluation of another packed hash", seed.Machine, func(t *testing.T, dstDir string) *cas.Store {
			// The record is rewritten for a PackedHash the set does not
			// have, with stats that would show if it were replayed.
			dst := copyAll(t, dstDir)
			set, err := dst.GetPackageSetMeta(key.A, key.B)
			if err != nil {
				t.Fatal(err)
			}
			mkey := cas.MachineKey(seed.Machine)
			ev, err := dst.GetEvaluation(key.A, key.B, mkey, set.PackedHash)
			if err != nil {
				t.Fatal(err)
			}
			ev.Stats.Cycles *= 2
			if err := dst.PutEvaluation(key.A, key.B, mkey, set.PackedHash+1, ev); err != nil {
				t.Fatal(err)
			}
			return dst
		}, counts{1, 3, 1, 1, 1}},
		// The baseline is keyed by machine too, so the profile pass reruns.
		{"evaluation of another machine", otherMachine, copyAll, counts{0, 0, 4, 4, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, jobs := range []int{1, 2} {
				t.Run(fmt.Sprintf("j%d", jobs), func(t *testing.T) {
					dir := t.TempDir()
					if err := tc.spoil(t, dir).Close(); err != nil {
						t.Fatal(err)
					}
					// run runs the suite on a fresh handle on dir and
					// checks its results against the storeless run's.
					run := func(pass string) counts {
						rec := obs.NewRecorder()
						opts, st := storeOpts(t, dir, rec)
						opts.Machine, opts.Jobs = tc.machine, jobs
						s, err := RunSuite(opts)
						if err != nil {
							t.Fatal(err)
						}
						if err := st.Close(); err != nil {
							t.Fatal(err)
						}
						a, b := stripElapsed(storeless[tc.machine]), stripElapsed(s)
						b.StoreProfileHits, b.StoreProfileMisses, b.StorePackageHits, b.StorePackageMisses = 0, 0, 0, 0
						b.StoreBytes, b.StoreSegments = 0, 0
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("%s results differ from the storeless run's:\nstoreless: %+v\n%s: %+v", pass, a, pass, b)
						}
						spans := map[string]int{}
						for _, sp := range rec.Export().SpanTotals() {
							spans[sp.Name] = sp.Count
						}
						return counts{int(s.StoreProfileHits), int(s.StorePackageHits), int(s.StorePackageMisses), spans[obs.StagePackage], spans[obs.StageEvaluate]}
					}
					if got := run("fallback"); got != tc.want {
						t.Errorf("profile hits, package hits/misses, package and evaluate stages = %+v, want %+v", got, tc.want)
					}
					if got, want := run("healed"), (counts{1, 4, 0, 0, 0}); got != want {
						t.Errorf("second run: profile hits, package hits/misses, package and evaluate stages = %+v, want %+v", got, want)
					}
				})
			}
		})
	}
}

// normalizedTraceJSON renders a recorder's normalized trace for
// byte-exact comparison.
func normalizedTraceJSON(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Export().Normalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunSuiteStoreParallelDeterminism: warm store runs produce
// identical traces at -j1 and -j4 (the store counters merge in paper
// order like everything else), and identical results.
func TestRunSuiteStoreParallelDeterminism(t *testing.T) {
	dir := t.TempDir()
	seed, _ := storeOpts(t, dir, nil)
	if _, err := RunSuite(seed); err != nil {
		t.Fatal(err)
	}

	run := func(jobs int) (*Suite, []byte) {
		rec := obs.NewRecorder()
		opts, _ := storeOpts(t, dir, rec)
		opts.Benchmarks = []string{"m88ksim"}
		opts.Jobs = jobs
		s, err := RunSuite(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s, normalizedTraceJSON(t, rec)
	}
	s1, t1 := run(1)
	s4, t4 := run(4)
	if !reflect.DeepEqual(stripElapsed(s1), stripElapsed(s4)) {
		t.Fatal("warm results differ across -j")
	}
	if string(t1) != string(t4) {
		t.Fatal("warm traces differ across -j")
	}
}

// TestRunSuiteStoreEquivKeying is the regression gate for Config.Hash
// incorporating the equiv knobs: a store primed by a non-equiv run must
// NOT serve its package sets to an equiv-enabled run (the cached sets
// carry no certificates), and changing the path budget re-keys again.
func TestRunSuiteStoreEquivKeying(t *testing.T) {
	dir := t.TempDir()
	seed, st := storeOpts(t, dir, nil)
	if _, err := RunSuite(seed); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Equiv on: profiles may hit (ProfileKey ignores equiv knobs), but
	// every package stage must miss and recompute with proofs.
	opts, st2 := storeOpts(t, dir, nil)
	opts.Core.Equiv = true
	s, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.StorePackageHits != 0 || s.StorePackageMisses != 4 {
		t.Fatalf("equiv-on run against non-equiv store: package hits/misses = %d/%d, want 0/4",
			s.StorePackageHits, s.StorePackageMisses)
	}
	if s.StoreProfileHits != 1 {
		t.Errorf("profile reuse should survive equiv (ProfileKey unchanged): hits = %d, want 1", s.StoreProfileHits)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Same equiv config again: warm.
	warmOpts, st3 := storeOpts(t, dir, nil)
	warmOpts.Core.Equiv = true
	warm, err := RunSuite(warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StorePackageHits != 4 || warm.StorePackageMisses != 0 {
		t.Fatalf("equiv-on warm rerun: package hits/misses = %d/%d, want 4/0",
			warm.StorePackageHits, warm.StorePackageMisses)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	// A different path budget is a different proof; it must re-key.
	budgetOpts, _ := storeOpts(t, dir, nil)
	budgetOpts.Core.Equiv = true
	budgetOpts.Core.EquivMaxPaths = 128
	b, err := RunSuite(budgetOpts)
	if err != nil {
		t.Fatal(err)
	}
	if b.StorePackageHits != 0 || b.StorePackageMisses != 4 {
		t.Fatalf("EquivMaxPaths change did not re-key the store: hits/misses = %d/%d, want 0/4",
			b.StorePackageHits, b.StorePackageMisses)
	}
}
