// Package report runs the evaluation suite and regenerates every table and
// figure of the paper's §5: Table 1 (benchmarks), Table 2 (machine model),
// Figure 8 (package coverage under the four configurations), Table 3 (code
// expansion), Figure 9 (branch categorization) and Figure 10 (speedup).
package report

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/equiv"
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
	// follows completion, not paper order. It supersedes Progress.
	Logger *slog.Logger
	// Progress, when non-nil and Logger is nil, receives one plain text
	// line per input as it finishes (the pre-slog format, kept for
	// callers that scrape it).
	Progress io.Writer
	// Observer, when non-nil and enabled, receives spans, events and
	// metrics for the whole suite. Each work item records into its own
	// private recorder; the per-item traces are merged into Observer in
	// paper order after the pool drains, so the merged stream is identical
	// at every Jobs setting (span wall times aside).
	Observer obs.Observer
	// Store, when non-nil, is the persistent artifact store: profiles
	// (with their baseline timings) and per-variant region artifacts and
	// package sets are looked up before being computed and written
	// through after. A fully warm store makes the suite skip every
	// profile, region and package stage — the rerun costs the timed
	// evaluation plus I/O. Each lookup emits store.* hit/miss counters
	// alongside the profile_memo.* ones; results are bit-identical with
	// the store warm, cold or absent. RunSuite flushes the store before
	// returning.
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

	// BlockCacheHits/Misses are the timed run's basic-block cache traffic
	// (hits include chained dispatches); both zero when the cache is off.
	BlockCacheHits   uint64
	BlockCacheMisses uint64
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

// TotalInsts sums the profiled dynamic instruction counts of every input.
func (s *Suite) TotalInsts() uint64 {
	var n uint64
	for i := range s.Results {
		n += s.Results[i].DynInsts
	}
	return n
}

// workItem is one (benchmark, input) unit of suite work, in paper order.
type workItem struct {
	b  *workload.Benchmark
	in workload.Input
}

// profileMemo shares profiling work across the variants of one input.
// Entries are keyed by core.Config.ProfileKey — the canonical hash of the
// profiling-relevant sub-config — so variants that only differ in
// packaging/optimization knobs (all four paper variants) collapse to a
// single profile pass whose phase database, profile stats and baseline
// timing are then shared read-only.
type profileMemo struct {
	mu      sync.Mutex
	entries map[uint64]*profileEntry
}

// profileEntry is one memoized profiling result: the stage-1 profile
// artifact plus the baseline timing collected in the same pass. once
// makes concurrent first callers compute exactly once; the other fields
// are written inside once.Do and read-only afterwards.
type profileEntry struct {
	once sync.Once
	pa   *core.ProfileArtifact
	base cpu.TimingStats
	err  error
}

// profile returns the memoized profile artifact for cfg's profile
// sub-config, running the pass at most once per distinct key. The pass
// executes under the observer of whichever caller reaches once.Do first;
// RunSuite always primes the memo from the input-level eager call, so the
// profile span lands in the per-item recorder and variant traces stay
// deterministic at every -j. Each call records a profile_memo.hits or
// profile_memo.misses counter into its own observer.
func (pm *profileMemo) profile(cfg core.Config, mc cpu.Config, img *prog.Image, o obs.Observer) (*core.ProfileArtifact, cpu.TimingStats, error) {
	key := cfg.ProfileKey()
	pm.mu.Lock()
	e, ok := pm.entries[key]
	if !ok {
		if pm.entries == nil {
			pm.entries = make(map[uint64]*profileEntry)
		}
		e = &profileEntry{}
		pm.entries[key] = e
	}
	pm.mu.Unlock()
	if ok {
		o.Count(obs.ProfileMemoHits.Name, 1)
	} else {
		o.Count(obs.ProfileMemoMisses.Name, 1)
	}
	e.once.Do(func() {
		e.pa, e.base, e.err = core.ProfileTimed(cfg, mc, img, o)
	})
	return e.pa, e.base, e.err
}

// prime installs a precomputed profiling result (a store hit) under key,
// so every later profile() call for that key is a memo hit and the pass
// never runs. A prime racing a compute loses cleanly: whoever fires the
// entry's once first wins and both see one consistent result.
func (pm *profileMemo) prime(key uint64, pa *core.ProfileArtifact, base cpu.TimingStats) {
	pm.mu.Lock()
	e, ok := pm.entries[key]
	if !ok {
		if pm.entries == nil {
			pm.entries = make(map[uint64]*profileEntry)
		}
		e = &profileEntry{}
		pm.entries[key] = e
	}
	pm.mu.Unlock()
	e.once.Do(func() {
		e.pa = pa
		e.base = base
	})
}

// timedMemo shares timed runs across the variants of one input. The four
// variants often pack byte-identical programs (inference or linking may
// change nothing), and the timed engine is deterministic, so each
// distinct packed image is timed once and its statistics, block cache
// and data hash are shared read-only. The key is exact equality under
// cpu.SameTimedImage, found by a linear scan over at most four entries.
type timedMemo struct {
	mu      sync.Mutex
	entries []*timedEntry
}

// timedEntry is one memoized timed run. once makes concurrent first
// callers run exactly once; the result fields are written inside once.Do
// and read-only afterwards. bc keeps only the run's counters: the decoded
// blocks are dropped, so an entry holds little beyond its image until
// the input finishes.
type timedEntry struct {
	img          *prog.Image
	once         sync.Once
	stats        cpu.TimingStats
	bc           *cpu.BlockCache
	hash, stores uint64
	err          error
}

// entry returns the memo entry for img's timed image, adding one when no
// earlier image matches.
func (tm *timedMemo) entry(img *prog.Image) *timedEntry {
	tm.mu.Lock()
	defer tm.mu.Unlock()
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
// finished: one miss per distinct image, a hit for every other variant.
// Counting here rather than per lookup keeps the trace independent of
// which concurrent variant filled an entry first.
func (tm *timedMemo) count(variants int, o obs.Observer) {
	misses := len(tm.entries)
	o.Count(obs.EvalMemoMisses.Name, int64(misses))
	o.Count(obs.EvalMemoHits.Name, int64(variants-misses))
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
	// Per-item recorders keep the merged stream deterministic: workers
	// never write the shared observer directly.
	traces := make([]*obs.Trace, len(items))
	itemObserver := func() (obs.Observer, *obs.Recorder) {
		if !o.Enabled() {
			return obs.Nop{}, nil
		}
		rec := obs.NewRecorder()
		return rec, rec
	}

	start := time.Now()
	results := make([]*InputResult, len(items))
	errs := make([]error, len(items))

	if opts.Logger != nil {
		opts.Logger.Info("suite start", "items", len(items), "jobs", jobs)
	}
	// Progress from concurrent workers: slog handlers serialize their own
	// writes; the legacy plain-text path funnels through one mutex so
	// lines never interleave mid-row.
	var progressMu sync.Mutex
	report := func(idx int, ir *InputResult) {
		results[idx] = ir
		// Observed directly (not via the per-item recorders) so a live
		// /metrics scrape sees progress mid-suite; histogram merge is
		// commutative and the _us name is time-valued, so completion order
		// never leaks into a Normalize()d trace.
		o.Observe(obs.SuiteInputElapsed.Name, float64(ir.Elapsed.Microseconds()))
		full := ir.Full()
		if opts.Logger != nil {
			opts.Logger.Info("input complete",
				"bench", ir.Bench, "input", ir.Input,
				"insts", ir.DynInsts, "phases", ir.Phases,
				"coverage", full.Coverage, "speedup", full.Speedup,
				"elapsed", ir.Elapsed)
			return
		}
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		fmt.Fprintf(opts.Progress, "%-9s %s  %8d insts  %2d phases  cov %5.1f%%  speedup %.3f\n",
			ir.Bench, ir.Input, ir.DynInsts, ir.Phases, full.Coverage*100, full.Speedup)
		progressMu.Unlock()
	}

	// Fan out over the shared bounded pool (ForEachN); jobs == 1 runs the
	// same closure inline in paper order.
	parallel := jobs != 1
	tally := &storeTally{}
	ForEachN(jobs, len(items), func(idx int) {
		it := items[idx]
		io2, rec := itemObserver()
		ir, err := runInput(opts, it.b, it.in, parallel, io2, tally)
		if rec != nil {
			traces[idx] = rec.Export()
		}
		if err != nil {
			errs[idx] = fmt.Errorf("report: %s/%s: %w", it.b.Name, it.in.Name, err)
			return
		}
		report(idx, ir)
	})

	// Merge per-item traces in paper order while the suite span is still
	// open, so item spans re-parent under it deterministically.
	for _, t := range traces {
		o.Absorb(t)
	}

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

// runInput profiles one input once and then evaluates the four variants,
// concurrently when parallel is set. The profiled program, its image and
// the phase database are shared read-only across variants; each variant
// packages its own clone, and the timed run is shared by the variants
// whose packed images are identical to the timed engine, as is each
// package proof by the variants that pose the same proof obligation.
//
// With a store, the profile (and its companion baseline timing) is
// looked up under (ImageHash, ProfileKey) first: a hit primes the memo
// so the profile pass never runs; a miss runs it cold and writes both
// artifacts through. Store write failures are deliberately non-fatal
// here — a full disk degrades the cache, not the science — the
// end-of-suite Flush is where persistence problems surface.
func runInput(opts Options, b *workload.Benchmark, in workload.Input, parallel bool, o obs.Observer, tally *storeTally) (*InputResult, error) {
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
	imgHash := core.ImageHash(img)
	// Prime the cross-variant memo eagerly under the item observer: the
	// single profile pass (HSD profile + baseline timing in one run) lands
	// ahead of the variant spans in the trace, and every variant whose
	// profiling sub-config matches — all four paper variants — hits.
	memo := &profileMemo{}
	storedProfile := false
	if opts.Store != nil {
		key := opts.Core.ProfileKey()
		mkey := cas.MachineKey(opts.Machine)
		if spa, gerr := opts.Store.GetProfileArtifact(imgHash, key); gerr == nil {
			if sbase, berr := opts.Store.GetBaseline(imgHash, mkey); berr == nil {
				memo.prime(key, spa, sbase)
				storedProfile = true
			}
		}
		if storedProfile {
			o.Count(obs.StoreHits.Name, 1)
			o.Count(obs.StoreProfileHits.Name, 1)
			tally.profileHits.Add(1)
		} else {
			o.Count(obs.StoreMisses.Name, 1)
			o.Count(obs.StoreProfileMisses.Name, 1)
			tally.profileMisses.Add(1)
		}
	}
	pa, base, err := memo.profile(opts.Core, opts.Machine, img, o)
	if err != nil {
		return nil, err
	}
	if opts.Store != nil && !storedProfile {
		_ = opts.Store.PutProfileArtifact(imgHash, opts.Core.ProfileKey(), pa)
		_ = opts.Store.PutBaseline(imgHash, cas.MachineKey(opts.Machine), base)
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
	proofs := &equiv.Memo{}
	ir.Variants = make([]VariantResult, len(variants))
	verrs := make([]error, len(variants))
	if parallel {
		// Concurrent variants record into private recorders, merged in
		// variant order below — the same stream a sequential run emits.
		vtraces := make([]*obs.Trace, len(variants))
		var wg sync.WaitGroup
		for i, v := range variants {
			wg.Add(1)
			go func(i int, v core.Variant) {
				defer wg.Done()
				var vo obs.Observer = obs.Nop{}
				var rec *obs.Recorder
				if o.Enabled() {
					rec = obs.NewRecorder()
					vo = rec
				}
				ir.Variants[i], verrs[i] = runVariant(opts, p, img, imgHash, memo, timed, proofs, v, vo, tally)
				if rec != nil {
					vtraces[i] = rec.Export()
				}
			}(i, v)
		}
		wg.Wait()
		for _, t := range vtraces {
			o.Absorb(t)
		}
	} else {
		for i, v := range variants {
			ir.Variants[i], verrs[i] = runVariant(opts, p, img, imgHash, memo, timed, proofs, v, o, tally)
		}
	}
	if err := errors.Join(verrs...); err != nil {
		return nil, err
	}
	timed.count(len(variants), o)
	if opts.Core.Equiv {
		// Counted once the variants are done, like the timed memo: the
		// totals do not depend on which variant proved an obligation.
		core.CountProofMemo(o, proofs)
	}
	ir.Elapsed = time.Since(start)
	return ir, nil
}

// runVariant packages a fresh clone of the profiled program under one
// variant configuration and evaluates it against the shared baseline,
// through the input's timed memo (timePacked); with Equiv its package
// proofs go through the input's proof memo. The profiling result
// comes from the input's profile memo — a hit for every variant that
// shares the profiling sub-config; p and the memoized artifact/base are
// read-only here. The variant runs the staged pipeline directly:
// RegionStage and PackageStage against the clone's image, whose hash
// matches the profiled image by the Clone-preserves-linearization
// property the stages' staleness checks enforce.
// With a store, the variant first looks up its package set (and the
// region artifact that carries the phase count) under the clone-free
// key (ImageHash, Config.Hash): a hit rematerializes the packed program
// from the stored assembly — verified against the set's PackedHash, so
// corruption degrades to a recompute — and goes straight to the timed
// evaluation, skipping clone, region and package stages wholesale. The
// timed evaluation is deterministic, so warm results equal cold results
// exactly.
func runVariant(opts Options, p *prog.Program, img *prog.Image, imgHash uint64, memo *profileMemo, timed *timedMemo, proofs *equiv.Memo, v core.Variant, o obs.Observer, tally *storeTally) (VariantResult, error) {
	sp := obs.Span{}
	if o.Enabled() {
		sp = o.StartSpan("variant:" + v.Name())
	}
	defer sp.End()
	cfg := v.Apply(opts.Core)
	pa, base, err := memo.profile(cfg, opts.Machine, img, o)
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
	}
	st := pa.Stats
	var cfgHash uint64
	if opts.Store != nil {
		cfgHash = cfg.Hash()
		if vr, ok := storedVariant(opts, timed, imgHash, cfgHash, v, base, st, o); ok {
			o.Count(obs.StoreHits.Name, 1)
			o.Count(obs.StorePackageHits.Name, 1)
			tally.packageHits.Add(1)
			return vr, nil
		}
		o.Count(obs.StoreMisses.Name, 1)
		o.Count(obs.StorePackageMisses.Name, 1)
		tally.packageMisses.Add(1)
	}
	clone := p.Clone()
	// The clone linearizes identically to the profiled program (IDs
	// and layout are preserved), so the phase database's PCs map onto
	// the clone's own image — and its image hash matches the artifact's
	// ProgramHash, which RegionStage verifies.
	cloneImg, err := clone.Linearize()
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
	}
	ra, err := core.RegionStageObserved(cfg, cloneImg, pa, o)
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
	}
	set, err := core.PackageStageObserved(cfg, clone, cloneImg, ra, proofs, o)
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
	}
	res := set.Result()
	packedImg, err := clone.Linearize()
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: %w", v.Name(), err)
	}
	run, err := timePacked(opts, timed, packedImg, o)
	if err != nil {
		return VariantResult{}, fmt.Errorf("variant %s: timed run: %w", v.Name(), err)
	}
	if opts.Store != nil {
		// Write-through (best effort; the end-of-suite Flush surfaces
		// persistence problems). Encoding disassembles the packed program,
		// so only store-enabled cold runs pay it.
		_ = opts.Store.PutRegionArtifact(cfgHash, ra)
		_ = opts.Store.PutPackageSet(cfgHash, set)
	}
	vr := VariantResult{
		Variant:  v,
		Growth:   res.CodeGrowth(),
		Selected: res.SelectedFraction(),
		Repl:     res.Replication(),
		Packages: len(res.Packages),
		Links:    res.Links,
		Launch:   res.LaunchPoints,
		Phases:   ra.NumRegions(),
	}
	run.fill(&vr, base, st)
	return vr, nil
}

// storedVariant attempts the warm path: fetch the variant's package set
// and region artifact, rematerialize the packed program and verify its
// image against the set's PackedHash, then run the timed evaluation.
// Any failure — missing entry, corruption, hash mismatch — returns
// ok == false and the caller recomputes cold.
func storedVariant(opts Options, timed *timedMemo, imgHash, cfgHash uint64, v core.Variant, base cpu.TimingStats, st core.ProfileStats, o obs.Observer) (VariantResult, bool) {
	set, err := opts.Store.GetPackageSet(imgHash, cfgHash)
	if err != nil {
		return VariantResult{}, false
	}
	ra, err := opts.Store.GetRegionArtifact(imgHash, cfgHash)
	if err != nil {
		return VariantResult{}, false
	}
	packed, err := set.Materialize()
	if err != nil {
		return VariantResult{}, false
	}
	packedImg, err := packed.Linearize()
	if err != nil {
		return VariantResult{}, false
	}
	if set.PackedHash == 0 || core.ImageHash(packedImg) != set.PackedHash {
		return VariantResult{}, false
	}
	run, err := timePacked(opts, timed, packedImg, o)
	if err != nil {
		return VariantResult{}, false
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
	run.fill(&vr, base, st)
	return vr, true
}

// timePacked evaluates one packed image inside an evaluate span, emitting
// the engine counters — the shared tail of the cold and warm variant
// paths. The timed run itself comes from the input's memo: the first
// variant with this image runs it, and the others wait for and share
// its result. Every caller records the same span and counters, so each
// variant's trace is the one its own run would have produced.
func timePacked(opts Options, timed *timedMemo, packedImg *prog.Image, o obs.Observer) (*timedEntry, error) {
	esp := o.StartSpan(obs.StageEvaluate)
	e := timed.entry(packedImg)
	e.once.Do(func() {
		bc := cpu.NewBlockCache(packedImg)
		stats, m, err := cpu.RunTimedCached(opts.Machine, packedImg, 0, bc)
		if err != nil {
			e.err = err
			return
		}
		e.stats, e.bc = stats, &cpu.BlockCache{Stats: bc.Stats, SB: bc.SB}
		e.hash, e.stores = m.DataHash()
	})
	esp.End()
	if e.err != nil {
		return nil, e.err
	}
	o.Observe(obs.EvalCycles.Name, float64(e.stats.Cycles))
	core.CountEngine(o, e.bc)
	return e, nil
}

// fill copies the timed run's coverage, engine fields and speedup into
// the variant result, with the equivalence verdict against the profiled
// run's data-segment effects.
func (e *timedEntry) fill(vr *VariantResult, base cpu.TimingStats, st core.ProfileStats) {
	stats, bc := e.stats, e.bc
	vr.Coverage = stats.PackageCoverage()
	vr.Equivalent = e.hash == st.DataHash && e.stores == st.DataStores
	vr.BlockCacheHits = bc.Stats.Hits + bc.Stats.Chained
	vr.BlockCacheMisses = bc.Stats.Misses
	if stats.Cycles > 0 {
		vr.Speedup = float64(base.Cycles) / float64(stats.Cycles)
	}
}
