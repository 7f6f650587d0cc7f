// Package report runs the evaluation suite and regenerates every table and
// figure of the paper's §5: Table 1 (benchmarks), Table 2 (machine model),
// Figure 8 (package coverage under the four configurations), Table 3 (code
// expansion), Figure 9 (branch categorization) and Figure 10 (speedup).
package report

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/workload"
)

// Options configures a suite run.
type Options struct {
	Machine cpu.Config
	Core    core.Config
	// Benchmarks restricts the suite (nil = all, Table 1 order).
	Benchmarks []string
	// ScaleOverride forces every input's iteration scale (0 = input's own).
	ScaleOverride int64
	// Jobs bounds how many (benchmark, input) work items run concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces a fully sequential run
	// (variants included). Results are assembled in paper order and are
	// identical at every setting.
	Jobs int
	// Logger, when non-nil, receives one structured record per input as
	// it finishes (bench, input, insts, phases, coverage, speedup) plus
	// suite start/end records. slog handlers serialize their own writes,
	// so records never interleave; under a parallel run their order
	// follows completion, not paper order.
	Logger *slog.Logger
	// Observer, when non-nil and enabled, receives spans, events and
	// metrics for the whole suite. Each work item records into its own
	// private recorder; the per-item traces are merged into Observer in
	// paper order after the pool drains, so the merged stream is identical
	// at every Jobs setting (span wall times aside).
	Observer obs.Observer
	// Store, when non-nil, is the persistent artifact store: profiles
	// (with their baseline timings) and per-variant region artifacts,
	// package sets and evaluation records are looked up before being
	// computed and written through after. A fully warm store makes the
	// suite skip every profile, region, package and evaluate stage: the
	// rerun reads the stored results and no program text, so it costs
	// I/O. Each lookup emits store.* hit/miss counters; results are
	// bit-identical with the store warm, cold or absent. RunSuite flushes
	// the store before returning.
	Store *cas.Store
}

// VariantResult is one bar of Figures 8/10 for one input.
type VariantResult struct {
	Variant    core.Variant
	Coverage   float64
	Speedup    float64
	Growth     float64
	Selected   float64
	Repl       float64
	Packages   int
	Links      int
	Launch     int
	Phases     int
	Equivalent bool
}

// InputResult aggregates one benchmark input.
type InputResult struct {
	Bench string
	Input string
	Paper string

	DynInsts   uint64
	Branches   uint64
	Detections uint64
	Phases     int

	Base       cpu.TimingStats
	Variants   []VariantResult
	Categories phasedb.Categorization

	// Elapsed is the wall-clock time this input took (profiling pass plus
	// all variants); under a parallel run variant times overlap.
	Elapsed time.Duration
}

// Full returns the result for the paper's default configuration
// (inference + linking).
func (ir *InputResult) Full() *VariantResult {
	for i := range ir.Variants {
		v := &ir.Variants[i]
		if v.Variant.Inference && v.Variant.Linking {
			return v
		}
	}
	if len(ir.Variants) > 0 {
		return &ir.Variants[0]
	}
	return nil
}

// Suite is a full evaluation run.
type Suite struct {
	Machine cpu.Config
	Results []InputResult
	// Elapsed is the whole suite's wall-clock time.
	Elapsed time.Duration

	// Store traffic for the run, all zero without Options.Store: lookup
	// hits/misses split by artifact class (a package hit means the
	// variant's region+package stages were skipped wholesale), and the
	// store's on-disk shape after the final flush. A fully warm run has
	// zero misses and StorePackageHits == 4 × inputs.
	StoreProfileHits   uint64
	StoreProfileMisses uint64
	StorePackageHits   uint64
	StorePackageMisses uint64
	StoreBytes         int64
	StoreSegments      int
}

// storeTally accumulates store traffic across concurrent work items.
type storeTally struct {
	profileHits, profileMisses atomic.Uint64
	packageHits, packageMisses atomic.Uint64
}

// lookup records one store lookup as a hit or a miss, in the tally and on
// o: store.hits or store.misses plus the class counter hitName or
// missName.
func lookup(o obs.Observer, hit bool, hits, misses *atomic.Uint64, hitName, missName string) {
	if hit {
		hits.Add(1)
		o.Count(obs.StoreHits.Name, 1)
		o.Count(hitName, 1)
		return
	}
	misses.Add(1)
	o.Count(obs.StoreMisses.Name, 1)
	o.Count(missName, 1)
}

// TotalInsts sums the profiled dynamic instruction counts of every input.
func (s *Suite) TotalInsts() uint64 {
	var n uint64
	for i := range s.Results {
		n += s.Results[i].DynInsts
	}
	return n
}

// Diverged counts the packed runs whose data-segment effects differ from
// their original's (Figure 10 marks their inputs DIVERGED).
func (s *Suite) Diverged() int {
	n := 0
	for i := range s.Results {
		for _, v := range s.Results[i].Variants {
			if !v.Equivalent {
				n++
			}
		}
	}
	return n
}

// workItem is one (benchmark, input) unit of suite work, in paper order.
type workItem struct {
	b  *workload.Benchmark
	in workload.Input
}

// timedMemo shares timed runs across the variants of one input. The four
// variants often pack byte-identical programs (inference or linking may
// change nothing), and the timed engine is deterministic, so each
// distinct packed image is timed once and its statistics, block cache
// and data hash are shared read-only. The key is exact equality under
// cpu.SameTimedImage, found by a linear scan over at most four entries.
// A variant replayed from the store never reaches the memo.
type timedMemo struct {
	mu      sync.Mutex
	entries []*timedEntry
	lookups int
}

// timedEntry is one memoized timed run. once makes concurrent first
// callers run exactly once; the result fields are written inside once.Do
// and read-only afterwards. bc keeps only the run's counters: the decoded
// blocks are dropped, so an entry holds little beyond its image until
// the input finishes. A replayed variant gets an entry of its own that
// holds only the stored Evaluation.
type timedEntry struct {
	img  *prog.Image
	once sync.Once
	cas.Evaluation
	bc  *cpu.BlockCache
	err error
}

// entry returns the memo entry for img's timed image, adding one when no
// earlier image matches.
func (tm *timedMemo) entry(img *prog.Image) *timedEntry {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.lookups++
	for _, e := range tm.entries {
		if cpu.SameTimedImage(e.img, img) {
			return e
		}
	}
	e := &timedEntry{img: img}
	tm.entries = append(tm.entries, e)
	return e
}

// count records the memo's traffic for one input whose variants have all
// finished: one miss per distinct image, a hit for every other timed
// variant. Counting here rather than per lookup keeps the trace
// independent of which concurrent variant filled an entry first. An
// input whose variants were all replayed timed nothing and counts
// nothing.
func (tm *timedMemo) count(o obs.Observer) {
	if tm.lookups == 0 {
		return
	}
	misses := len(tm.entries)
	o.Count(obs.EvalMemoMisses.Name, int64(misses))
	o.Count(obs.EvalMemoHits.Name, int64(tm.lookups-misses))
}

// RunSuite executes the pipeline for every benchmark input and variant.
// Each input is profiled once (collecting baseline timing in the same
// pass); each of the four variants then packages a fresh clone,
// concurrently with the other variants when Jobs != 1. Variants whose
// packed programs coincide share one timed run (see timedMemo).
//
// Work items fan out over a bounded worker pool. Results are assembled in
// deterministic paper order regardless of completion order, and per-input
// failures are aggregated (also in paper order) instead of aborting the
// rest of the suite; on any failure the aggregated error is returned and
// the suite is nil.
func RunSuite(opts Options) (*Suite, error) {
	benches := workload.Ordered()
	if len(opts.Benchmarks) > 0 {
		var sel []*workload.Benchmark
		for _, name := range opts.Benchmarks {
			b, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			sel = append(sel, b)
		}
		benches = sel
	}
	var items []workItem
	for _, b := range benches {
		for _, in := range b.Inputs {
			if opts.ScaleOverride > 0 {
				in.Scale = opts.ScaleOverride
			}
			items = append(items, workItem{b: b, in: in})
		}
	}

	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(items) {
		jobs = len(items)
	}
	if jobs < 1 {
		jobs = 1
	}

	var o obs.Observer = obs.Nop{}
	if opts.Observer != nil {
		o = opts.Observer
	}
	suiteSpan := o.StartSpan(obs.StageSuite)
	defer suiteSpan.End()

	start := time.Now()
	results := make([]*InputResult, len(items))
	errs := make([]error, len(items))

	if opts.Logger != nil {
		opts.Logger.Info("suite start", "items", len(items), "jobs", jobs)
	}
	// The variants of an input run concurrently unless the whole suite is
	// sequential.
	variantJobs := len(core.Variants())
	if jobs == 1 {
		variantJobs = 1
	}
	tally := &storeTally{}
	// Item traces are absorbed while the suite span is still open, so item
	// spans re-parent under it deterministically.
	fanOut(jobs, len(items), o, func(idx int, oi obs.Observer) {
		it := items[idx]
		ir, err := runInput(opts, it.b, it.in, variantJobs, oi, tally)
		if err != nil {
			errs[idx] = fmt.Errorf("report: %s/%s: %w", it.b.Name, it.in.Name, err)
			return
		}
		results[idx] = ir
		// Observed directly (not via the per-item recorders) so a live
		// /metrics scrape sees progress mid-suite; histogram merge is
		// commutative and the _us name is time-valued, so completion order
		// never leaks into a Normalize()d trace.
		o.Observe(obs.SuiteInputElapsed.Name, float64(ir.Elapsed.Microseconds()))
		if opts.Logger != nil {
			full := ir.Full()
			opts.Logger.Info("input complete",
				"bench", ir.Bench, "input", ir.Input,
				"insts", ir.DynInsts, "phases", ir.Phases,
				"coverage", full.Coverage, "speedup", full.Speedup,
				"elapsed", ir.Elapsed)
		}
	})

	if err := errors.Join(errs...); err != nil {
		if opts.Logger != nil {
			opts.Logger.Error("suite failed", "err", err)
		}
		return nil, err
	}
	suite := &Suite{Machine: opts.Machine, Elapsed: time.Since(start)}
	for _, ir := range results {
		suite.Results = append(suite.Results, *ir)
	}
	if opts.Store != nil {
		// Persist everything written through during the run; the caller
		// asked for durability, so a failing flush fails the suite.
		if err := opts.Store.Flush(); err != nil {
			return nil, err
		}
		suite.StoreProfileHits = tally.profileHits.Load()
		suite.StoreProfileMisses = tally.profileMisses.Load()
		suite.StorePackageHits = tally.packageHits.Load()
		suite.StorePackageMisses = tally.packageMisses.Load()
		sst := opts.Store.Stats()
		suite.StoreBytes = sst.DiskBytes
		suite.StoreSegments = sst.Segments
		// Gauges after the single end-of-suite flush: segment contents are
		// written in sorted chunk order, so these values are deterministic
		// at every Jobs setting.
		o.Gauge(obs.StoreBytes.Name, float64(sst.DiskBytes))
		o.Gauge(obs.StoreSegments.Name, float64(sst.Segments))
	}
	if opts.Logger != nil {
		opts.Logger.Info("suite complete", "items", len(items), "jobs", jobs,
			"elapsed", suite.Elapsed, "insts", suite.TotalInsts())
	}
	return suite, nil
}

// fanOut runs fn(i, oi) for every i in [0, n) over at most workers
// concurrent invocations (ForEachN). When o is enabled each index records
// into a private recorder oi, and the recorders are absorbed into o in
// index order once all are done, so the merged stream is the same at
// every worker count; otherwise oi is obs.Nop{}.
func fanOut(workers, n int, o obs.Observer, fn func(i int, oi obs.Observer)) {
	if !o.Enabled() {
		ForEachN(workers, n, func(i int) { fn(i, obs.Nop{}) })
		return
	}
	traces := make([]*obs.Trace, n)
	ForEachN(workers, n, func(i int) {
		rec := obs.NewRecorder()
		fn(i, rec)
		traces[i] = rec.Export()
	})
	for _, t := range traces {
		o.Absorb(t)
	}
}

// runInput profiles one input once and then evaluates the four variants,
// variantJobs of them at a time. The profiled program, its image and
// the profile artifact are shared read-only across variants; each
// variant packages its own clone, and the timed run is shared by the
// variants whose packed images are identical to the timed engine.
//
// The profile and its baseline come through cas.ProfileTimed, the
// store's one profile protocol: with a store, a hit skips the profile
// pass and a miss runs it and writes both through (best effort; the
// end-of-suite Flush is where persistence problems surface).
func runInput(opts Options, b *workload.Benchmark, in workload.Input, variantJobs int, o obs.Observer, tally *storeTally) (*InputResult, error) {
	start := time.Now()
	sp := obs.Span{}
	if o.Enabled() {
		sp = o.StartSpan("input:" + b.Name + "/" + in.Name)
	}
	defer sp.End()
	p := b.Build(in)
	img, err := p.Linearize()
	if err != nil {
		return nil, err
	}
	// One pass yields the HSD profile and the baseline timing.
	pa, base, stored, err := cas.ProfileTimed(opts.Store, opts.Core, opts.Machine, img, o)
	if err != nil {
		return nil, err
	}
	if opts.Store != nil {
		lookup(o, stored, &tally.profileHits, &tally.profileMisses, obs.StoreProfileHits.Name, obs.StoreProfileMisses.Name)
	}
	db := pa.DB()

	ir := &InputResult{
		Bench:      b.Name,
		Input:      in.Name,
		Paper:      b.Paper,
		DynInsts:   pa.Stats.Insts,
		Branches:   pa.Stats.Branches,
		Detections: pa.Stats.Detections,
		Phases:     len(db.Phases),
		Base:       base,
		Categories: db.Categorize(),
	}

	variants := core.Variants()
	timed := &timedMemo{}
	ir.Variants = make([]VariantResult, len(variants))
	verrs := make([]error, len(variants))
	fanOut(variantJobs, len(variants), o, func(i int, vo obs.Observer) {
		ir.Variants[i], verrs[i] = runVariant(opts, b.Name+"/"+in.Name, p, pa, base, timed, variants[i], vo, tally)
	})
	if err := errors.Join(verrs...); err != nil {
		return nil, err
	}
	timed.count(o)
	ir.Elapsed = time.Since(start)
	return ir, nil
}

// runVariant evaluates one variant of the profiled program against the
// shared baseline base. A stored variant is replayed when the store holds
// its region artifact, package set and evaluation record (storedVariant):
// the stored timed result is used and nothing is built or simulated. Any
// other variant is rebuilt cold: core.Compose on a fresh clone of p,
// then a timed run through the input's timed memo (timePacked). The
// timed evaluation is deterministic, so replayed results equal cold
// results exactly. With a store, a cold rebuild writes all its entries
// through, so the next run replays it. input names the benchmark input.
func runVariant(opts Options, input string, p *prog.Program, pa *core.ProfileArtifact, base cpu.TimingStats, timed *timedMemo, v core.Variant, o obs.Observer, tally *storeTally) (VariantResult, error) {
	sp := obs.Span{}
	if o.Enabled() {
		sp = o.StartSpan("variant:" + v.Name())
	}
	defer sp.End()
	cfg := v.Apply(opts.Core)
	imgHash := pa.ProgramHash // the profiled image's
	var cfgHash, mkey uint64
	var ra *core.RegionArtifact
	var set *core.PackageSet
	var run *timedEntry
	if opts.Store != nil {
		cfgHash, mkey = cfg.Hash(), cas.MachineKey(opts.Machine)
		ra, set, run = storedVariant(opts.Store, imgHash, cfgHash, mkey)
		lookup(o, run != nil, &tally.packageHits, &tally.packageMisses, obs.StorePackageHits.Name, obs.StorePackageMisses.Name)
	}
	if run == nil {
		// The clone linearizes as the profiled image did (Clone keeps
		// block IDs and layout), so imgHash is its hash too.
		clone := p.Clone()
		cloneImg, err := clone.Linearize()
		if err == nil {
			ra, set, err = core.Compose(cfg, clone, cloneImg, imgHash, pa, o)
		}
		if err != nil {
			return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
		}
		if run, err = timePacked(opts, timed, set.PackedImage(), base, input+"/"+v.Name(), o); err != nil {
			return VariantResult{}, fmt.Errorf("variant %s: timed run: %w", v.Name(), err)
		}
		if opts.Store != nil {
			// Best effort; the end-of-suite Flush surfaces persistence
			// problems. Encoding disassembles the packed program, so only
			// store-enabled cold runs pay it. PutPackageSet fills in the
			// set's PackedHash, which keys the evaluation record.
			_ = opts.Store.PutRegionArtifact(cfgHash, ra)
			_ = opts.Store.PutPackageSet(cfgHash, set)
			_ = opts.Store.PutEvaluation(imgHash, cfgHash, mkey, set.PackedHash, run.Evaluation)
		}
	}
	vr := VariantResult{
		Variant:  v,
		Growth:   set.CodeGrowth(),
		Selected: set.SelectedFraction(),
		Repl:     set.Replication(),
		Packages: set.Stats.Packages,
		Links:    set.Stats.Links,
		Launch:   set.Stats.LaunchPoints,
		Phases:   ra.NumRegions(),
	}
	run.fill(&vr, base, pa.Stats)
	return vr, nil
}

// storedVariant fetches a variant's package set (without its packed
// text), region artifact and evaluation record on machine mkey under the
// clone-free key (ImageHash, Config.Hash). run is non-nil only when all
// three hit and the record was timed on the set's PackedHash; it then
// carries the stored result and no program is read. Any miss, corrupt
// entry or hash mismatch returns a nil run, and the variant is rebuilt
// cold.
func storedVariant(s *cas.Store, imgHash, cfgHash, mkey uint64) (ra *core.RegionArtifact, set *core.PackageSet, run *timedEntry) {
	set, err := s.GetPackageSetMeta(imgHash, cfgHash)
	if err != nil || set.PackedHash == 0 {
		return nil, nil, nil
	}
	if ra, err = s.GetRegionArtifact(imgHash, cfgHash); err != nil {
		return nil, nil, nil
	}
	ev, err := s.GetEvaluation(imgHash, cfgHash, mkey, set.PackedHash)
	if err != nil {
		return nil, nil, nil
	}
	return ra, set, &timedEntry{Evaluation: ev}
}

// timePacked evaluates one packed image inside an evaluate span, emitting
// the engine counters. The timed run itself comes from the input's memo:
// the first variant with this image runs it, within core.PackedBudget of
// the baseline base, and the others wait for and share its result. Every
// caller records the same span and counters, so each variant's trace is
// the one its own run would have produced; a run stopped at the budget
// is refused under each caller's name run (core.CountRefusal).
func timePacked(opts Options, timed *timedMemo, packedImg *prog.Image, base cpu.TimingStats, run string, o obs.Observer) (*timedEntry, error) {
	esp := o.StartSpan(obs.StageEvaluate)
	e := timed.entry(packedImg)
	e.once.Do(func() {
		bc := cpu.NewBlockCache(packedImg)
		stats, m, err := cpu.RunTimedCached(opts.Machine, packedImg, core.PackedBudget(base), bc)
		if err != nil {
			e.err = err
			return
		}
		e.Stats, e.bc = stats, &cpu.BlockCache{Stats: bc.Stats, SB: bc.SB}
		e.DataHash, e.DataStores = m.DataHash()
	})
	esp.End()
	if e.err != nil {
		if core.CountRefusal(o, run, e.err) {
			return nil, &RefusedError{Run: run, Err: e.err}
		}
		return nil, e.err
	}
	o.Observe(obs.EvalCycles.Name, float64(e.Stats.Cycles))
	core.CountEngine(o, e.bc)
	return e, nil
}

// RefusedError is a packed run that timePacked stopped at its
// instruction budget (cpu.ErrInstLimit). Run names its input and
// variant; the message is the limit error's.
type RefusedError struct {
	Run string
	Err error
}

func (e *RefusedError) Error() string { return e.Err.Error() }
func (e *RefusedError) Unwrap() error { return e.Err }

// Refused lists the runs a RunSuite error reports refused at their
// budget, in paper order.
func Refused(err error) (runs []string) {
	switch e := err.(type) {
	case *RefusedError:
		return []string{e.Run}
	case interface{ Unwrap() []error }:
		for _, c := range e.Unwrap() {
			runs = append(runs, Refused(c)...)
		}
	case interface{ Unwrap() error }:
		return Refused(e.Unwrap())
	}
	return runs
}

// fill copies the timed run's coverage, speedup and equivalence verdict
// against the profiled run (core.Compare) into the variant result.
func (e *timedEntry) fill(vr *VariantResult, base cpu.TimingStats, st core.ProfileStats) {
	ev := core.Compare(base, st, e.Stats, e.DataHash, e.DataStores)
	vr.Coverage, vr.Speedup, vr.Equivalent = ev.Coverage, ev.Speedup, ev.Equivalent
}
