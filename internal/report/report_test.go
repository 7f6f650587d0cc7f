package report

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/workload"
)

// runSmallSuite runs two benchmarks at scale 1 and caches the result across
// subtests.
func runSmallSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := RunSuite(Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl"},
		ScaleOverride: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSuiteSubset(t *testing.T) {
	s := runSmallSuite(t)
	// m88ksim has 1 input, perl has 3.
	if len(s.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(s.Results))
	}
	for _, r := range s.Results {
		if r.DynInsts == 0 || r.Branches == 0 {
			t.Errorf("%s/%s: empty profile", r.Bench, r.Input)
		}
		if len(r.Variants) != 4 {
			t.Fatalf("%s/%s: %d variants, want 4", r.Bench, r.Input, len(r.Variants))
		}
		for _, v := range r.Variants {
			if !v.Equivalent {
				t.Errorf("%s/%s %s: diverged", r.Bench, r.Input, v.Variant.Name())
			}
			if v.Coverage <= 0 || v.Coverage > 1 {
				t.Errorf("%s/%s: coverage %v out of range", r.Bench, r.Input, v.Coverage)
			}
			if v.Speedup <= 0.5 || v.Speedup > 2 {
				t.Errorf("%s/%s: speedup %v implausible", r.Bench, r.Input, v.Speedup)
			}
		}
		full := r.Full()
		if full == nil || !full.Variant.Inference || !full.Variant.Linking {
			t.Error("Full() did not return the inference+linking variant")
		}
	}
	// m88ksim's linking gain must be visible through the harness too.
	m := s.Results[0]
	if m.Bench != "m88ksim" {
		t.Fatalf("first result = %s, want m88ksim", m.Bench)
	}
	noLink := m.Variants[2] // inf, no link
	link := m.Variants[3]   // inf + link
	if link.Coverage <= noLink.Coverage {
		t.Errorf("linking should raise m88ksim coverage: %.2f vs %.2f", link.Coverage, noLink.Coverage)
	}
}

func TestFormatters(t *testing.T) {
	s := runSmallSuite(t)
	t1 := s.Table1()
	if !strings.Contains(t1, "m88ksim") || !strings.Contains(t1, "# of Inst") {
		t.Error("Table1 malformed")
	}
	t2 := Table2(cpu.DefaultConfig())
	for _, want := range []string{"8 units", "512 KB", "gshare", "1024 entry"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	f8 := s.Figure8()
	if !strings.Contains(f8, "noInf/noLink") || !strings.Contains(f8, "average") {
		t.Error("Figure8 malformed")
	}
	t3 := s.Table3()
	if !strings.Contains(t3, "Replication") {
		t.Error("Table3 malformed")
	}
	f9 := s.Figure9()
	if !strings.Contains(f9, "Multi High") {
		t.Error("Figure9 malformed")
	}
	f10 := s.Figure10()
	if !strings.Contains(f10, "functionally equivalent") {
		t.Error("Figure10 should confirm equivalence")
	}
}

// TestRunSuiteParallelDeterminism asserts that a parallel run assembles
// results in paper order and renders every table and figure byte-identical
// to a fully sequential run, regardless of worker completion order.
func TestRunSuiteParallelDeterminism(t *testing.T) {
	opts := Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl", "li"},
		ScaleOverride: 1,
	}
	seqOpts := opts
	seqOpts.Jobs = 1
	seq, err := RunSuite(seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := opts
	parOpts.Jobs = 4
	par, err := RunSuite(parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		s, p := &seq.Results[i], &par.Results[i]
		if s.Bench != p.Bench || s.Input != p.Input {
			t.Fatalf("result %d order differs: %s/%s vs %s/%s", i, s.Bench, s.Input, p.Bench, p.Input)
		}
	}
	renders := []struct {
		name     string
		seq, par string
	}{
		{"Table1", seq.Table1(), par.Table1()},
		{"Table3", seq.Table3(), par.Table3()},
		{"Figure8", seq.Figure8(), par.Figure8()},
		{"Figure9", seq.Figure9(), par.Figure9()},
		{"Figure10", seq.Figure10(), par.Figure10()},
	}
	for _, r := range renders {
		if r.seq != r.par {
			t.Errorf("%s differs between sequential and parallel runs:\n--- seq ---\n%s\n--- par ---\n%s", r.name, r.seq, r.par)
		}
	}
}

// TestRunSuiteTier0Identical runs the suite on tier 0 alone (superblocks
// off) and requires the tables and figures to be byte-identical to the
// default two-tier run, and every result apart from its wall time to be
// equal: the two timed tiers must agree on every packed program the
// suite evaluates.
func TestRunSuiteTier0Identical(t *testing.T) {
	opts := Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl", "li"},
		ScaleOverride: 1,
	}
	tiered, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Machine.DisableSuperblocks = true
	tier0, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	renders := []struct {
		name        string
		tiered, off string
	}{
		{"Table1", tiered.Table1(), tier0.Table1()},
		{"Table3", tiered.Table3(), tier0.Table3()},
		{"Figure8", tiered.Figure8(), tier0.Figure8()},
		{"Figure9", tiered.Figure9(), tier0.Figure9()},
		{"Figure10", tiered.Figure10(), tier0.Figure10()},
	}
	for _, r := range renders {
		if r.tiered != r.off {
			t.Errorf("%s differs with superblocks off:\n--- on ---\n%s\n--- off ---\n%s", r.name, r.tiered, r.off)
		}
	}
	strip := func(s *Suite) []InputResult {
		rs := append([]InputResult(nil), s.Results...)
		for i := range rs {
			rs[i].Elapsed = 0
		}
		return rs
	}
	if a, b := strip(tiered), strip(tier0); !reflect.DeepEqual(a, b) {
		t.Errorf("results differ with superblocks off:\n  on:  %+v\n  off: %+v", a, b)
	}
}

// TestRunSuiteAggregatesErrors checks that one bad benchmark name fails
// fast, while per-input pipeline failures would be joined rather than
// aborting the remaining items (exercised via the error path formatting).
func TestRunSuiteAggregatesErrors(t *testing.T) {
	// A scale so small every phase detection starves triggers per-input
	// "no usable phases" errors for every input; all of them must surface.
	opts := Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl"},
		ScaleOverride: 1,
		Jobs:          2,
	}
	opts.Core.ProfileLimit = 10 // guarantees every input fails mid-profile
	_, err := RunSuite(opts)
	if err == nil {
		t.Fatal("starved profile should fail")
	}
	for _, want := range []string{"m88ksim/A", "perl/A", "perl/B", "perl/C"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %s: %v", want, err)
		}
	}
}

func TestRunSuiteUnknownBenchmark(t *testing.T) {
	_, err := RunSuite(Options{
		Machine:    cpu.DefaultConfig(),
		Core:       core.ScaledConfig(),
		Benchmarks: []string{"nope"},
	})
	if err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestBar(t *testing.T) {
	if bar(0.5, 10) != "#####....." {
		t.Errorf("bar(0.5,10) = %q", bar(0.5, 10))
	}
	if bar(-1, 4) != "...." || bar(2, 4) != "####" {
		t.Error("bar clamping wrong")
	}
}

// observedSuiteTrace runs the small suite with a recorder at the given
// worker count and returns the normalized exported trace.
func observedSuiteTrace(t *testing.T, jobs int) *obs.Trace {
	t.Helper()
	rec := obs.NewRecorder()
	_, err := RunSuite(Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl"},
		ScaleOverride: 1,
		Jobs:          jobs,
		Observer:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Export().Normalize()
}

// TestRunSuiteObserverDeterministic asserts the merged span/event/metric
// stream is identical at -j 1 and -j 4: per-worker recorders must be
// absorbed in paper order, never completion order.
func TestRunSuiteObserverDeterministic(t *testing.T) {
	seq := observedSuiteTrace(t, 1)
	par := observedSuiteTrace(t, 4)

	if len(seq.Events) == 0 {
		t.Fatal("observed suite emitted no events")
	}
	if !reflect.DeepEqual(seq.Events, par.Events) {
		t.Errorf("event streams differ between -j 1 (%d events) and -j 4 (%d events)",
			len(seq.Events), len(par.Events))
	}
	if !reflect.DeepEqual(seq.Spans, par.Spans) {
		t.Errorf("normalized span trees differ between -j 1 (%d spans) and -j 4 (%d spans)",
			len(seq.Spans), len(par.Spans))
	}
	if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
		t.Errorf("metrics differ between -j 1 and -j 4:\n%+v\n%+v", seq.Metrics, par.Metrics)
	}

	// Every pipeline stage must appear as a span.
	have := make(map[string]bool)
	for _, s := range seq.Spans {
		have[s.Name] = true
	}
	for _, stage := range obs.Stages() {
		if stage == obs.StagePipeline {
			continue // RunSuite drives stages itself; "pipeline" wraps core.RunObserved only
		}
		if !have[stage] {
			t.Errorf("stage %q missing from suite trace", stage)
		}
	}
}

// TestRunSuiteSentinelErrors drives a detector that can never promote a
// candidate branch (its threshold exceeds any reachable counter value), so
// every input fails with ErrNoPhases — which must survive RunSuite's
// wrapping and errors.Join aggregation.
func TestRunSuiteSentinelErrors(t *testing.T) {
	opts := Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim"},
		ScaleOverride: 1,
		Jobs:          2,
	}
	opts.Core.Detector.CounterBits = 31
	opts.Core.Detector.CandidateThreshold = 1 << 30
	_, err := RunSuite(opts)
	if err == nil {
		t.Fatal("candidate-starved detector should fail the suite")
	}
	if !errors.Is(err, core.ErrNoPhases) {
		t.Errorf("errors.Is(err, core.ErrNoPhases) = false for %v", err)
	}
}

// TestRunSuiteProfileMemo is the acceptance gate for cross-variant profile
// reuse: the four variants share one profiling sub-config, so RunSuite
// must run exactly one profile pass per (bench, input), at every -j.
func TestRunSuiteProfileMemo(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		rec := obs.NewRecorder()
		s, err := RunSuite(Options{
			Machine:       cpu.DefaultConfig(),
			Core:          core.ScaledConfig(),
			Benchmarks:    []string{"m88ksim", "perl"},
			ScaleOverride: 1,
			Jobs:          jobs,
			Observer:      rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Export()
		profiles := 0
		for _, sp := range tr.SpanTotals() {
			if sp.Name == obs.StageProfile {
				profiles = sp.Count
			}
		}
		if profiles != len(s.Results) {
			t.Errorf("-j %d: %d profile spans, want %d (one profile pass per input)", jobs, profiles, len(s.Results))
		}
		// The block cache is on by default; the suite's timed runs must
		// report its traffic.
		if got := tr.Metrics.Counters["blockcache.misses"]; got <= 0 {
			t.Errorf("-j %d: blockcache.misses = %d, want > 0", jobs, got)
		}
		if got := tr.Metrics.Counters["blockcache.hits"]; got <= 0 {
			t.Errorf("-j %d: blockcache.hits = %d, want > 0", jobs, got)
		}
		if got := tr.Metrics.Counters["blockcache.evictions"]; got != 0 {
			t.Errorf("-j %d: blockcache.evictions = %d, want 0 (per-variant caches never rebind)", jobs, got)
		}
	}
}

// TestRunSuiteTimedMemo is the gate for the cross-variant timed memo:
// every variant of every input is accounted for as a hit or a miss, the
// misses are exactly the distinct packed images, and every variant —
// memo hits included — reports what a fresh timed run of its own packed
// image gives: timed fields, block-cache and superblock stats and the
// equivalence verdict. At -j 4 the variants race to fill the memo.
func TestRunSuiteTimedMemo(t *testing.T) {
	cfg := core.ScaledConfig()
	mc := cpu.DefaultConfig()
	jobs := []int{1, 4}
	suites := make([]*Suite, len(jobs))
	traces := make([]*obs.Trace, len(jobs))
	for k, j := range jobs {
		rec := obs.NewRecorder()
		s, err := RunSuite(Options{
			Machine:       mc,
			Core:          cfg,
			Benchmarks:    []string{"m88ksim", "perl"},
			ScaleOverride: 1,
			Jobs:          j,
			Observer:      rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		suites[k], traces[k] = s, rec.Export()
	}

	var distinct int64
	for ri, r := range suites[0].Results {
		bench, err := workload.ByName(r.Bench)
		if err != nil {
			t.Fatal(err)
		}
		var in workload.Input
		for _, bi := range bench.Inputs {
			if bi.Name == r.Input {
				in = bi
			}
		}
		in.Scale = 1
		p := bench.Build(in)
		img, err := p.Linearize()
		if err != nil {
			t.Fatal(err)
		}
		pa, err := core.ProfileStage(cfg, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		var packed []*prog.Image
		for i, v := range core.Variants() {
			vcfg := v.Apply(cfg)
			clone := p.Clone()
			cimg, err := clone.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			ra, err := core.RegionStage(vcfg, cimg, pa)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.PackageStage(vcfg, clone, cimg, ra); err != nil {
				t.Fatal(err)
			}
			pimg, err := clone.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(packed, func(o *prog.Image) bool { return cpu.SameTimedImage(pimg, o) }) {
				distinct++
			}
			packed = append(packed, pimg)

			bc := cpu.NewBlockCache(pimg)
			stats, m, err := cpu.RunTimedCached(mc, pimg, 0, bc)
			if err != nil {
				t.Fatal(err)
			}
			own := &timedEntry{Evaluation: cas.Evaluation{Stats: stats}, bc: bc}
			own.DataHash, own.DataStores = m.DataHash()
			for k, s := range suites {
				got := s.Results[ri].Variants[i]
				if got.Variant != v {
					t.Fatalf("-j %d: variant %d is %s, want %s", jobs[k], i, got.Variant.Name(), v.Name())
				}
				want := got
				own.fill(&want, r.Base, pa.Stats)
				if got != want {
					t.Errorf("-j %d: %s/%s %s: timed result differs from a fresh run of its packed image:\n  got:  %+v\n  want: %+v",
						jobs[k], r.Bench, r.Input, v.Name(), got, want)
				}
			}
		}
	}

	items := int64(len(suites[0].Results))
	for k, tr := range traces {
		hits := tr.Metrics.Counters[obs.EvalMemoHits.Name]
		misses := tr.Metrics.Counters[obs.EvalMemoMisses.Name]
		if hits+misses != 4*items {
			t.Errorf("-j %d: eval_memo hits %d + misses %d != %d variants", jobs[k], hits, misses, 4*items)
		}
		if hits <= 0 {
			t.Errorf("-j %d: eval_memo.hits = %d, want > 0 (m88ksim's inference changes nothing)", jobs[k], hits)
		}
		if misses != distinct {
			t.Errorf("-j %d: eval_memo.misses = %d, want %d distinct packed images", jobs[k], misses, distinct)
		}
	}
}

// observedEquivTrace runs the small suite with -equiv on at the given
// worker count and returns the normalized exported trace.
func observedEquivTrace(t *testing.T, jobs int) *obs.Trace {
	t.Helper()
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	rec := obs.NewRecorder()
	_, err := RunSuite(Options{
		Machine:       cpu.DefaultConfig(),
		Core:          cfg,
		Benchmarks:    []string{"m88ksim", "perl"},
		ScaleOverride: 1,
		Jobs:          jobs,
		Observer:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Export().Normalize()
}

// TestRunSuiteEquivDeterministic is the equiv-on determinism gate: with
// translation validation enabled the suite must complete with zero
// violations, prove every package it packs, and emit byte-identical
// golden traces at any worker count — the proof work itself must be
// deterministic and scheduling-independent.
func TestRunSuiteEquivDeterministic(t *testing.T) {
	seq := observedEquivTrace(t, 1)
	par := observedEquivTrace(t, 4)

	if got := seq.Metrics.Counters[obs.EquivViolations.Name]; got != 0 {
		t.Fatalf("clean suite recorded %d equiv violations", got)
	}
	if got := seq.Metrics.Counters[obs.EquivPackages.Name]; got <= 0 {
		t.Fatalf("equiv-on suite proved no packages (counter %d)", got)
	}
	if seq.Metrics.Counters[obs.EquivPathsProved.Name] <= 0 {
		t.Error("equiv-on suite recorded no proved paths")
	}
	if !reflect.DeepEqual(seq.Events, par.Events) {
		t.Errorf("equiv-on event streams differ between -j 1 (%d events) and -j 4 (%d events)",
			len(seq.Events), len(par.Events))
	}
	if !reflect.DeepEqual(seq.Spans, par.Spans) {
		t.Errorf("equiv-on span trees differ between -j 1 and -j 4")
	}
	if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
		t.Errorf("equiv-on metrics differ between -j 1 and -j 4:\n%+v\n%+v", seq.Metrics, par.Metrics)
	}
}

// TestProfileBaseMatchesBlockEngine pins the invariant the suite's speedup
// rests on: base cycles come from the profiling pass (core.ProfileTimed on
// the block engine) and packed cycles from RunTimedCached, so on the same
// image the two must produce identical TimingStats. It checks every
// workload input at scale 1.
func TestProfileBaseMatchesBlockEngine(t *testing.T) {
	mc := cpu.DefaultConfig()
	for _, bench := range workload.Ordered() {
		for _, in := range bench.Inputs {
			in.Scale = 1
			t.Run(bench.Name+"/"+in.Name, func(t *testing.T) {
				img, err := bench.Build(in).Linearize()
				if err != nil {
					t.Fatalf("linearize: %v", err)
				}
				_, base, err := core.ProfileTimed(core.ScaledConfig(), mc, img, obs.Nop{})
				if err != nil {
					t.Fatalf("profile: %v", err)
				}
				block, _, err := cpu.RunTimedCached(mc, img, 0, cpu.NewBlockCache(img))
				if err != nil {
					t.Fatalf("block engine: %v", err)
				}
				if base != block {
					t.Errorf("profile base diverged from the block engine:\n  profile: %+v\n  block:   %+v", base, block)
				}
			})
		}
	}
}

// TestTimePackedBudget: the suite's timed run of a packed image that
// never halts ends at core.PackedBudget of the baseline with a limit
// error instead of running forever, and the refusal names its run in a
// typed error, a run_refused event and an eval.budget_refused series.
func TestTimePackedBudget(t *testing.T) {
	p, err := asm.Assemble(`
.func main
.main
loop:
  addi r1, r1, 1
  jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	base := cpu.TimingStats{Insts: 1000}
	const run = "loop/A/inference + linking"
	rec := obs.NewRecorder()
	_, err = timePacked(Options{Machine: cpu.DefaultConfig()}, &timedMemo{}, img, base, run, rec)
	var le *cpu.LimitError
	if !errors.As(err, &le) || le.Limit != core.PackedBudget(base) {
		t.Fatalf("want a limit error at the budget %d, got %v", core.PackedBudget(base), err)
	}
	joined := errors.Join(fmt.Errorf("report: loop/A: variant x: timed run: %w", err), errors.New("other"))
	if got := Refused(joined); len(got) != 1 || got[0] != run {
		t.Errorf("Refused = %q, want [%q]", got, run)
	}
	tr := rec.Export()
	if n := tr.Metrics.Counters[obs.EvalBudgetRefused.For(run)]; n != 1 {
		t.Errorf("%s = %d, want 1 (counters %v)", obs.EvalBudgetRefused.For(run), n, tr.Metrics.Counters)
	}
	var refused []string
	for _, e := range tr.Events {
		if e.Kind == obs.RunRefused.String() {
			refused = append(refused, e.Name)
		}
	}
	if len(refused) != 1 || refused[0] != run {
		t.Errorf("run_refused events name %q, want [%q]", refused, run)
	}
}
