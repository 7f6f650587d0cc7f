package core

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runPipeline executes the full pipeline on one workload input.
func runPipeline(t *testing.T, bench, input string, cfg Config) (*Outcome, *Evaluation) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName(input)
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1 // keep tests fast regardless of the input's default scale
	p := b.Build(in)
	if err := p.Verify(); err != nil {
		t.Fatalf("workload program invalid: %v", err)
	}
	out, err := Run(cfg, cpu.DefaultConfig(), p)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	ev, err := out.Evaluate()
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return out, ev
}

func TestPipelineEndToEndPerl(t *testing.T) {
	out, ev := runPipeline(t, "perl", "A", ScaledConfig())
	if out.Profile.Detections == 0 {
		t.Fatal("no hot spots detected")
	}
	if len(out.DB.Phases) < 2 {
		t.Errorf("phases = %d, want >= 2 (perl has three command mixes)", len(out.DB.Phases))
	}
	if len(out.Pack.Packages) == 0 {
		t.Fatal("no packages built")
	}
	if !ev.Equivalent {
		t.Fatal("packed program is not functionally equivalent to the original")
	}
	if ev.Coverage < 0.4 {
		t.Errorf("coverage = %.3f, suspiciously low", ev.Coverage)
	}
	t.Logf("perl/A: %d phases, %d packages, %d links, coverage %.1f%%, speedup %.3f",
		len(out.DB.Phases), len(out.Pack.Packages), out.Pack.Links, ev.Coverage*100, ev.Speedup)
}

func TestPipelineEquivalenceAcrossSuite(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			out, ev := runPipeline(t, b.Name, "A", ScaledConfig())
			if !ev.Equivalent {
				t.Fatalf("%s: packed program diverges from original", b.Name)
			}
			if err := out.Packed.Verify(); err != nil {
				t.Fatalf("%s: packed program invalid: %v", b.Name, err)
			}
			t.Logf("%s: coverage %.1f%% speedup %.3f growth %.1f%%",
				b.Name, ev.Coverage*100, ev.Speedup, out.Pack.CodeGrowth()*100)
		})
	}
}

func TestVariantsAffectPipeline(t *testing.T) {
	vs := Variants()
	if len(vs) != 4 {
		t.Fatal("want 4 variants")
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name()] = true
		cfg := v.Apply(ScaledConfig())
		if cfg.Region.EnableInference != v.Inference || cfg.Pack.EnableLinking != v.Linking {
			t.Error("variant did not apply")
		}
	}
	if len(names) != 4 {
		t.Error("variant names collide")
	}
}

func TestLinkingImprovesSharedRootCoverage(t *testing.T) {
	// m88ksim's two phases share the simulate root; without linking only
	// one phase's package is reachable through the shared launch point.
	cfgNoLink := Variant{Inference: true, Linking: false}.Apply(ScaledConfig())
	cfgLink := Variant{Inference: true, Linking: true}.Apply(ScaledConfig())
	_, evNo := runPipeline(t, "m88ksim", "A", cfgNoLink)
	outLink, evLink := runPipeline(t, "m88ksim", "A", cfgLink)
	if outLink.Pack.Links == 0 {
		t.Fatal("linking enabled but no links were formed")
	}
	if evLink.Coverage <= evNo.Coverage {
		t.Errorf("linking should improve m88ksim coverage: %.3f (link) vs %.3f (none)",
			evLink.Coverage, evNo.Coverage)
	}
	t.Logf("m88ksim coverage: no-link %.1f%%, link %.1f%%", evNo.Coverage*100, evLink.Coverage*100)
}

// Sinking (§5.4's future-work redundancy elimination) must preserve
// functional equivalence end to end.
func TestSinkEndToEndEquivalence(t *testing.T) {
	cfg := ScaledConfig()
	cfg.EnableSink = true
	out, ev := runPipeline(t, "gzip", "A", cfg)
	if !ev.Equivalent {
		t.Fatal("sinking broke functional equivalence")
	}
	if err := out.Packed.Verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("gzip with sinking: coverage %.1f%%, speedup %.3f", ev.Coverage*100, ev.Speedup)
}

// The hardware history filter must reduce recorded detections without
// losing phases. vortex's phases differ in branch membership, the case
// signature filtering handles well (bias-only phase changes are its
// documented blind spot — see hsd/history.go).
func TestHistoryFilterEndToEnd(t *testing.T) {
	plain := ScaledConfig()
	outPlain, _ := runPipeline(t, "vortex", "A", plain)

	hist := ScaledConfig()
	hist.HistoryDepth = 4
	outHist, evHist := runPipeline(t, "vortex", "A", hist)
	if !evHist.Equivalent {
		t.Fatal("history filter broke equivalence")
	}
	if len(outHist.DB.Phases) < 2 {
		t.Errorf("history filter lost phases: %d", len(outHist.DB.Phases))
	}
	if outHist.DB.Redundant >= outPlain.DB.Redundant {
		t.Errorf("history filter did not reduce software-filter load: %d vs %d",
			outHist.DB.Redundant, outPlain.DB.Redundant)
	}
	t.Logf("redundant software-filtered detections: %d plain vs %d with history",
		outPlain.DB.Redundant, outHist.DB.Redundant)
}

// Dynamic launch-point selection (§3.3.4's alternative to static linking)
// must recover most of linking's coverage on the shared-root benchmark and
// stay functionally equivalent.
func TestDynamicLaunchEndToEnd(t *testing.T) {
	noLink := Variant{Inference: true, Linking: false}.Apply(ScaledConfig())
	_, evNo := runPipeline(t, "m88ksim", "A", noLink)

	dyn := ScaledConfig()
	dyn.Pack.EnableLinking = false
	dyn.Pack.DynamicLaunch = true
	outDyn, evDyn := runPipeline(t, "m88ksim", "A", dyn)
	if !evDyn.Equivalent {
		t.Fatal("dynamic launch broke functional equivalence")
	}
	if outDyn.Pack.Monitors == 0 {
		t.Fatal("no monitoring snippets were installed")
	}
	if evDyn.Coverage <= evNo.Coverage {
		t.Errorf("dynamic launch should beat no-linking: %.1f%% vs %.1f%%",
			evDyn.Coverage*100, evNo.Coverage*100)
	}
	link := Variant{Inference: true, Linking: true}.Apply(ScaledConfig())
	_, evLink := runPipeline(t, "m88ksim", "A", link)
	t.Logf("m88ksim coverage: none %.1f%%, dynamic %.1f%%, static links %.1f%%",
		evNo.Coverage*100, evDyn.Coverage*100, evLink.Coverage*100)
}

// The approximate weight solver must keep the pipeline correct and produce
// comparable layouts.
func TestApproxWeightsEndToEnd(t *testing.T) {
	cfg := ScaledConfig()
	cfg.ApproxWeights = true
	_, ev := runPipeline(t, "ijpeg", "A", cfg)
	if !ev.Equivalent {
		t.Fatal("approx weights broke equivalence")
	}
	if ev.Speedup < 0.97 {
		t.Errorf("approx-weight layout regressed badly: %.3f", ev.Speedup)
	}
}

// The paper credits part of packaging's benefit to instruction locality:
// hot code scattered across a large binary gets gathered into compact
// packages. This test builds exactly that shape — three hot workers
// separated by kilobytes of cold library code — and checks the packed
// image takes fewer L1I misses per instruction on a cache-constrained
// machine. (The calibrated suite's generator lays workers out adjacently,
// so the scatter must be constructed explicitly; on already-compact
// layouts, replication can even cost a few misses — the growth tradeoff
// §1 warns about.)
func TestPackingImprovesICacheLocality(t *testing.T) {
	w := workload.NewW()
	arr := w.NewArray(256)
	arr2 := w.NewArray(256)

	// Workers with strongly biased diamonds: ~half of each worker's bytes
	// are cold sides interleaved with the hot path, diluting every fetch
	// line the way hot/cold-mixed compiler layouts do. Packing prunes the
	// cold sides, roughly doubling instruction density.
	biased := func() []workload.Param {
		var ds []workload.Param
		for i := 0; i < 6; i++ {
			ds = append(ds, w.NewParam(975))
		}
		return ds
	}
	mkBulk := func(prefix string) { w.Bulk(prefix, 14, 500, arr, 256) }
	mkBulk("scatterA")
	w1 := w.Worker("hot1", workload.FuncOpts{
		Decisions: biased(),
		ArrayA:    arr, ArrayB: arr2, ArrayWords: 256, ALUWork: 8,
		IterParam: w.NewParam(2),
	})
	mkBulk("scatterB")
	w2 := w.Worker("hot2", workload.FuncOpts{
		Decisions: biased(),
		ArrayA:    arr2, ArrayB: arr, ArrayWords: 256, ALUWork: 8,
		IterParam: w.NewParam(2),
	})
	mkBulk("scatterC")
	w3 := w.Worker("hot3", workload.FuncOpts{
		Decisions: biased(),
		ArrayA:    arr, ArrayB: arr2, ArrayWords: 256, ALUWork: 8,
		IterParam: w.NewParam(2),
	})
	mkBulk("scatterD")
	always := w.NewParam(1000)
	drvIt := w.NewParam(0)
	drv := w.Worker("hotdrv", workload.FuncOpts{
		ArrayA: arr, ArrayB: arr2, ArrayWords: 256, ALUWork: 1,
		Callees: []workload.Callee{
			{Fn: w1, Gate: always}, {Fn: w2, Gate: always}, {Fn: w3, Gate: always},
		},
		IterParam: drvIt,
	})
	steps := w.DriverBurst(drvIt, 2400, drv)
	w.MainOf([][]workload.PhaseStep{steps})
	p := w.Finish(12345)

	out, err := Run(ScaledConfig(), smallL1I(), p)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := out.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Equivalent {
		t.Fatal("diverged")
	}
	baseRate := float64(ev.Base.L1IMisses) / float64(ev.Base.Insts)
	packedRate := float64(ev.Packed.L1IMisses) / float64(ev.Packed.Insts)
	t.Logf("scattered hot code, L1I misses/inst @2KB: base %.5f vs packed %.5f (coverage %.1f%%, speedup %.3f)",
		baseRate, packedRate, ev.Coverage*100, ev.Speedup)
	if packedRate >= baseRate {
		t.Errorf("packing scattered hot code should improve I-cache locality: %.5f -> %.5f",
			baseRate, packedRate)
	}
}

// smallL1I is the default machine with a 2 KB L1I: an undiluted hot path
// fits, a diluted one thrashes.
func smallL1I() cpu.Config {
	mc := cpu.DefaultConfig()
	mc.L1ISizeBytes = 2 << 10
	return mc
}

// TestBaselineFollowsMachine: the Outcome's baseline is the profile run
// under the machine Run was given, so it equals a separate timed run of
// the original on that machine, and differs from the default machine's.
func TestBaselineFollowsMachine(t *testing.T) {
	b, in := buildInput(t, "m88ksim", "A")
	mc := smallL1I()
	out, err := Run(ScaledConfig(), mc, b.Build(in))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := out.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cpu.RunTimed(mc, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Base != want {
		t.Errorf("baseline on a 2 KB L1I:\n  got:  %+v\n  want: %+v", ev.Base, want)
	}
	def, _, err := cpu.RunTimed(cpu.DefaultConfig(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if def == want {
		t.Fatal("the 2 KB L1I does not change the baseline; the test shows nothing")
	}
}

// TestProfileKey pins the memo-key contract: the four evaluation variants
// share one key (their differences are packaging-only), profiling knobs
// change it, and packaging/optimization knobs do not.
func TestProfileKey(t *testing.T) {
	base := ScaledConfig()
	key := base.ProfileKey()
	if key != base.ProfileKey() {
		t.Fatal("ProfileKey is not deterministic")
	}
	for _, v := range Variants() {
		if got := v.Apply(base).ProfileKey(); got != key {
			t.Errorf("variant %q changed the profile key", v.Name())
		}
	}

	same := base
	same.EnableLayout = !same.EnableLayout
	same.EnableSchedule = !same.EnableSchedule
	same.MaxPhases = 3
	same.Region.EnableInference = !same.Region.EnableInference
	same.Pack.EnableLinking = !same.Pack.EnableLinking
	if same.ProfileKey() != key {
		t.Error("packaging/optimization knobs must not change the profile key")
	}

	for name, mutate := range map[string]func(*Config){
		"detector":     func(c *Config) { c.Detector.CandidateThreshold++ },
		"filter":       func(c *Config) { c.Filter.DifferenceThreshold += 0.01 },
		"history":      func(c *Config) { c.HistoryDepth++ },
		"similarity":   func(c *Config) { c.HistorySimilarity += 0.1 },
		"profilelimit": func(c *Config) { c.ProfileLimit = 12345 },
	} {
		cfg := base
		mutate(&cfg)
		if cfg.ProfileKey() == key {
			t.Errorf("%s change did not alter the profile key", name)
		}
	}
}

// TestEvaluateBudget: a packed program that never halts ends its timed
// run at PackedBudget of the baseline with a limit error instead of
// running forever, and the refusal names the input and variant in a
// run_refused event and an eval.budget_refused series.
func TestEvaluateBudget(t *testing.T) {
	p, err := asm.Assemble(`
.func main
.main
  li r1, 0
loop:
  addi r1, r1, 1
  jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	base := cpu.TimingStats{Insts: 1000}
	out := &Outcome{Packed: p, Machine: cpu.DefaultConfig(), Base: base, Program: "loop/A", Variant: Variant{Inference: true}}
	rec := obs.NewRecorder()
	_, err = out.EvaluateObserved(rec)
	var le *cpu.LimitError
	if !errors.As(err, &le) || !errors.Is(err, cpu.ErrInstLimit) {
		t.Fatalf("want a limit error, got %v", err)
	}
	if le.Limit != PackedBudget(base) {
		t.Errorf("limit %d, want the budget %d", le.Limit, PackedBudget(base))
	}
	const run = "loop/A/inference, no linking"
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
