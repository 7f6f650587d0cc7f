// Package core orchestrates the full Vacuum Packing pipeline: it profiles a
// program under the Hot Spot Detector, filters detections into unique
// phases, identifies a hot region per phase, extracts and links packages,
// optimizes them (layout + rescheduling), and hands back the packed
// program with the profile run's baseline timing for evaluation.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pack"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/verify"
)

// Sentinel pipeline failures. They are always wrapped with detail via %w,
// so match them with errors.Is rather than string comparison.
var (
	// ErrNoPhases reports that region identification left no usable
	// phase: either the profile detected none, or every detected phase
	// was skipped.
	ErrNoPhases = errors.New("no usable phases detected")
	// ErrNoPackages reports that package construction failed for every
	// identified region.
	ErrNoPackages = errors.New("no packages constructed")
	// ErrVerifyFailed reports that the static verifier (Config.Verify)
	// rejected a pipeline stage's output. The wrapped chain contains a
	// *verify.Error with the structured diagnostics.
	ErrVerifyFailed = verify.ErrFailed
	// ErrNotEquivalent reports that translation validation (Config.Equiv)
	// refuted a package: the optimized code is not observationally
	// equivalent to the region code it replaced. The wrapped chain
	// contains an *equiv.Error with the structured counterexample.
	ErrNotEquivalent = equiv.ErrNotEquivalent
)

// Config gathers every pipeline knob. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	Detector hsd.Config
	Filter   phasedb.Config
	Region   region.Config
	Pack     pack.Config
	Sched    opt.Resources

	// EnableLayout and EnableSchedule control the §5.4 optimization passes
	// applied to package code. EnableSink additionally applies the
	// redundancy-elimination pass §5.4 describes as future work: cold
	// results move off the hot path into side exit blocks. ApproxWeights
	// swaps the damped iterative weight solver for the single-pass
	// approximation §5.4 suggests for run-time systems.
	// EnableMerge fuses single-entry fallthrough chains inside packages
	// before the other passes, realizing §5.4's increased block scope from
	// cold-path elimination.
	EnableLayout   bool
	EnableSchedule bool
	EnableMerge    bool
	EnableSink     bool
	ApproxWeights  bool

	// HistoryDepth, when positive, interposes the §3.1 hardware history
	// filter (hot-spot signatures) between the detector and the software
	// filter, suppressing re-detections of the last HistoryDepth hot
	// spots at HistorySimilarity Jaccard similarity. The paper's default
	// pushes all filtering to software (depth 0).
	HistoryDepth      int
	HistorySimilarity float64

	// MaxPhases caps how many detected phases are packaged (most heavily
	// detected first); 0 means all.
	MaxPhases int
	// ProfileLimit bounds the profiling run's instruction count
	// (0 = unlimited).
	ProfileLimit uint64
	// EntrySeedWeight seeds weight propagation at package entries.
	EntrySeedWeight float64

	// Verify gates every pipeline stage on the static verifier
	// (internal/verify): regions are checked against their phase records,
	// installation against the package invariants, and each optimization
	// pass against CFG well-formedness, with transformation certificates
	// re-checked after the last pass. Off by default; a violation fails
	// the pipeline with an ErrVerifyFailed-matchable error. Enabled runs
	// bump the verify.checked / verify.violations counters.
	Verify bool

	// Equiv gates every optimized package on translation validation
	// (internal/equiv): the package function is snapshotted after
	// installation and linking, and after the optimization passes each
	// path between cut points must produce identical observable effects —
	// live-out register terms, memory write chains, side-exit targets — or
	// the pipeline fails with an ErrNotEquivalent-matchable error carrying
	// a structured counterexample. Certificates land on the Outcome and
	// the PackageSet artifact. Off by default. EquivMaxPaths bounds
	// symbolic path enumeration per package (0 = the equiv package
	// default); a proof that needs more paths is refused the same way.
	Equiv         bool
	EquivMaxPaths int
}

// DefaultConfig returns the paper's configuration: Table 2 detector,
// §3.1 filter thresholds, §3.2 region parameters, linking on, layout and
// rescheduling on.
func DefaultConfig() Config {
	return Config{
		Detector:        hsd.DefaultConfig(),
		Filter:          phasedb.DefaultConfig(),
		Region:          region.DefaultConfig(),
		Pack:            pack.DefaultConfig(),
		Sched:           opt.DefaultResources(),
		EnableLayout:    true,
		EnableSchedule:  true,
		EnableMerge:     true,
		EntrySeedWeight: 1000,
	}
}

// ProfileKey returns a canonical hash of the profiling-relevant
// sub-configuration: the Hot Spot Detector, the software filter, the
// hardware history filter and the profiling instruction limit. Two
// configs with equal keys produce identical profiling runs (phase
// database, profile stats, baseline timing) on the same image, so the
// result can be shared read-only across them — the paper's four
// evaluation variants only differ in Region/Pack knobs and therefore all
// map to one key. Packaging, optimization and evaluation knobs
// deliberately do not participate.
func (cfg Config) ProfileKey() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", struct {
		Detector          hsd.Config
		Filter            phasedb.Config
		HistoryDepth      int
		HistorySimilarity float64
		ProfileLimit      uint64
	}{cfg.Detector, cfg.Filter, cfg.HistoryDepth, cfg.HistorySimilarity, cfg.ProfileLimit})
	return h.Sum64()
}

// Hash returns a canonical hash of the complete configuration — every
// knob that can change any pipeline artifact. It hashes Config itself, so
// a new field participates without being listed anywhere, and it is the
// second half of the store's package-set key: two configs with equal
// Hash produce byte-identical RegionArtifacts and PackageSets on the
// same image. The Verify gate and the Pack.Verify hook are zeroed first:
// verification rejects bad outputs but never changes good ones, and func
// identities are not configuration. The Equiv knobs DO participate —
// equiv runs embed certificates in the PackageSet, so a warm store hit
// from a non-equiv run must miss when -equiv turns on.
func (cfg Config) Hash() uint64 {
	cfg.Verify = false
	cfg.Pack.Verify = nil
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// ScaledConfig returns DefaultConfig with the workload-scaled Hot Spot
// Detector (hsd.ScaledConfig). The evaluation suite uses this
// configuration; see DESIGN.md for the scaling substitution rationale.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Detector = hsd.ScaledConfig()
	return cfg
}

// Variant names one of the paper's four evaluation configurations
// (Figures 8 and 10): {inference off/on} × {linking off/on}.
type Variant struct {
	Inference bool
	Linking   bool
}

// Variants lists the four bars of Figures 8 and 10 in paper order.
func Variants() []Variant {
	return []Variant{
		{Inference: false, Linking: false},
		{Inference: false, Linking: true},
		{Inference: true, Linking: false},
		{Inference: true, Linking: true},
	}
}

// Name renders a variant like the paper's legend.
func (v Variant) Name() string {
	s := "no inference"
	if v.Inference {
		s = "inference"
	}
	if v.Linking {
		return s + " + linking"
	}
	return s + ", no linking"
}

// Apply returns cfg specialized to the variant.
func (v Variant) Apply(cfg Config) Config {
	cfg.Region.EnableInference = v.Inference
	cfg.Pack.EnableLinking = v.Linking
	return cfg
}

// Outcome is the result of running the pipeline on one program.
type Outcome struct {
	// Packed is the input program with packages installed.
	Packed *prog.Program

	// Machine is the timing model the profile ran under; Base is the
	// original program's timed run on it. The profile run is the baseline,
	// so evaluation times only the packed program.
	Machine cpu.Config
	Base    cpu.TimingStats

	DB      *phasedb.DB
	Regions []*region.Region
	Pack    *pack.Result

	// Profile summarizes the profiling run.
	Profile ProfileStats
	// SkippedPhases counts phases whose region identification failed
	// (e.g. all hot-spot PCs were unmappable).
	SkippedPhases int

	// Equiv holds the per-package translation-validation certificates when
	// Config.Equiv is on, in package order.
	Equiv []*equiv.Certificate

	// Program optionally labels the run (benchmark/input) and Variant is
	// the configuration's; together they name a refused packed run.
	Program string
	Variant Variant

	// packedImg is the packed image Compose linearized; Evaluate times it.
	packedImg *prog.Image
}

// ProfileStats summarizes one profiling run. The JSON tags are the
// ProfileArtifact codec's: counters that can exceed 2^53 travel as
// strings so the round trip is exact.
type ProfileStats struct {
	Insts      uint64 `json:"insts,string"`
	Branches   uint64 `json:"branches,string"`
	Detections uint64 `json:"detections,string"`
	// DataHash/DataStores fingerprint the run's data-segment effects for
	// functional-equivalence checks against packed runs.
	DataHash   uint64 `json:"data_hash,string"`
	DataStores uint64 `json:"data_stores,string"`
}

// HotSpots runs img to completion under the Hot Spot Detector, on the
// timed block engine that profiles production runs, and returns every
// detection in order, unfiltered: the raw stream a hardware monitor would
// report, and what clients of the daemon post.
func HotSpots(cfg Config, img *prog.Image) ([]hsd.HotSpot, error) {
	var spots []hsd.HotSpot
	var base cpu.TimingStats
	_, _, err := detect(cfg, timedDriver(cpu.DefaultConfig(), img, cfg.ProfileLimit, &base), func(h hsd.HotSpot) {
		spots = append(spots, h)
	})
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	return spots, nil
}

// driver runs a program to completion, passing every retired conditional
// branch to branch in retirement order, and returns the machine it ran.
type driver func(branch cpu.BranchHook) (*cpu.Machine, error)

// stepDriver runs img on the functional step loop, the one driver with a
// per-instruction hook: obsFn, when non-nil, sees every retired
// instruction (ProfileStage's).
func stepDriver(img *prog.Image, limit uint64, obsFn func(*cpu.StepInfo)) driver {
	return func(branch cpu.BranchHook) (*cpu.Machine, error) {
		m := cpu.NewMachine(img)
		err := m.Run(limit, func(si *cpu.StepInfo) {
			if si.Inst.Op.IsCondBranch() {
				branch(si.PC, si.Taken, m.InstCount)
			}
			if obsFn != nil {
				obsFn(si)
			}
		})
		return m, err
	}
}

// timedDriver runs img on the timed block engine under mc and stores the
// run's statistics in *base, so one pass yields the branch stream and
// the baseline timing.
func timedDriver(mc cpu.Config, img *prog.Image, limit uint64, base *cpu.TimingStats) driver {
	return func(branch cpu.BranchHook) (*cpu.Machine, error) {
		st, m, err := cpu.RunTimedHooked(mc, img, limit, nil, branch)
		*base = st
		return m, err
	}
}

// detect runs drive under a Hot Spot Detector configured by cfg, handing
// every detection to record in order.
func detect(cfg Config, drive driver, record func(hsd.HotSpot)) (*cpu.Machine, hsd.Stats, error) {
	det := hsd.New(cfg.Detector, record)
	m, err := drive(func(pc int64, taken bool, insts uint64) {
		det.SetInstCount(insts)
		det.Branch(pc, taken)
	})
	return m, det.Stats, err
}

// profile is the profiling pass over either driver, reporting to an
// observer: the run executes inside a "profile" span, every unique phase
// emits a PhaseDetected event and every software-filtered (redundant)
// detection a PhaseFiltered event, and the profile.* counters summarize
// the run.
func profile(cfg Config, drive driver, o obs.Observer) (*phasedb.DB, ProfileStats, error) {
	sp := o.StartSpan(obs.StageProfile)
	defer sp.End()
	db := phasedb.New(cfg.Filter)
	record := func(h hsd.HotSpot) { db.Record(h) }
	if o.Enabled() {
		record = func(h hsd.HotSpot) {
			before := len(db.Phases)
			ph := db.Record(h)
			kind := obs.PhaseDetected
			if len(db.Phases) == before {
				kind = obs.PhaseFiltered
			}
			o.Emit(obs.Event{Kind: kind, Phase: ph.ID, N: 1})
		}
	}
	if cfg.HistoryDepth > 0 {
		sim := cfg.HistorySimilarity
		if sim == 0 {
			sim = 0.8
		}
		record = hsd.NewHistoryFilter(cfg.HistoryDepth, sim).WrapDetector(record)
	}
	m, ds, err := detect(cfg, drive, record)
	st := ProfileStats{
		Insts:      m.InstCount,
		Branches:   ds.BranchesSeen,
		Detections: ds.Detections,
	}
	st.DataHash, st.DataStores = m.DataHash()
	o.Count(obs.ProfileInsts.Name, int64(st.Insts))
	o.Count(obs.ProfileBranches.Name, int64(st.Branches))
	o.Count(obs.ProfileDetections.Name, int64(st.Detections))
	o.Count(obs.ProfilePhases.Name, int64(len(db.Phases)))
	o.Count(obs.ProfileRedundant.Name, int64(db.Redundant))
	if err != nil {
		return nil, st, fmt.Errorf("core: profiling run: %w", err)
	}
	return db, st, nil
}

// Run executes the full pipeline on p under the timing model mc. p is
// mutated into the packed program; the returned Outcome carries the
// profile run's baseline timing. It is a thin no-op-observer wrapper
// around RunObserved.
func Run(cfg Config, mc cpu.Config, p *prog.Program) (*Outcome, error) {
	return RunObserved(cfg, mc, p, obs.Nop{})
}

// RunObserved is Run reporting spans, events and metrics for every stage
// to an observer. Pass obs.Nop{} (or call Run) when observability is off;
// the disabled path adds no allocations.
//
// It is ProfileTimed under mc followed by PackageObserved, inside a
// "pipeline" span: one run of the original yields both the phase database
// and the baseline.
func RunObserved(cfg Config, mc cpu.Config, p *prog.Program, o obs.Observer) (*Outcome, error) {
	sp := o.StartSpan(obs.StagePipeline)
	defer sp.End()
	img, err := p.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize: %w", err)
	}
	pa, base, err := ProfileTimed(cfg, mc, img, o)
	if err != nil {
		return nil, err
	}
	return PackageObserved(cfg, mc, p, img, pa, base, o)
}

// passes translates the configuration's optimization knobs into the opt
// package's pass selection.
func (cfg Config) passes() opt.Passes {
	return opt.Passes{
		Merge:           cfg.EnableMerge,
		Sink:            cfg.EnableSink,
		Layout:          cfg.EnableLayout,
		Schedule:        cfg.EnableSchedule,
		Approx:          cfg.ApproxWeights,
		Sched:           cfg.Sched,
		EntrySeedWeight: cfg.EntrySeedWeight,
	}
}

// verifyCheck accounts one verifier invocation on the observer and passes
// its error through: verify.checked counts invocations, verify.violations
// counts individual diagnostics.
func verifyCheck(o obs.Observer, err error) error {
	o.Count(obs.VerifyChecked.Name, 1)
	if err == nil {
		return nil
	}
	o.Count(obs.VerifyViolations.Name, int64(len(verify.Diagnostics(err))))
	return err
}

// Evaluation is a timed comparison of the original and packed programs.
type Evaluation struct {
	Base   cpu.TimingStats
	Packed cpu.TimingStats
	// Coverage is the fraction of the packed run's dynamic instructions
	// retired from package code (Figure 8's metric).
	Coverage float64
	// Speedup is base cycles / packed cycles (Figure 10's metric).
	Speedup float64
	// Equivalent reports whether both runs produced identical
	// data-segment effects.
	Equivalent bool
}

// Compare judges a packed run against the profile run of the original:
// base is the profile run's timing and prof its statistics, packed the
// packed run's timing and dataHash/dataStores its data-segment effects.
// Every evaluation, single-program or suite, is computed here.
func Compare(base cpu.TimingStats, prof ProfileStats, packed cpu.TimingStats, dataHash, dataStores uint64) Evaluation {
	ev := Evaluation{
		Base:       base,
		Packed:     packed,
		Coverage:   packed.PackageCoverage(),
		Equivalent: dataHash == prof.DataHash && dataStores == prof.DataStores,
	}
	if packed.Cycles > 0 {
		ev.Speedup = float64(base.Cycles) / float64(packed.Cycles)
	}
	return ev
}

// Packed runs are bounded by a budget derived from the baseline: at most
// budgetFactor times the original's retired instructions plus budgetFloor.
// Over the 19 suite inputs and 4 variants the largest packed/base ratio
// is 0.9906 (DESIGN.md §10), so a clean run never reaches the budget,
// while a wrong package that loops forever ends as a cpu.LimitError. The
// floor keeps tiny programs from a budget of a few hundred instructions.
const (
	budgetFactor = 2
	budgetFloor  = 1 << 16
)

// PackedBudget is the instruction limit of a packed run whose original
// retired base.Insts instructions.
func PackedBudget(base cpu.TimingStats) uint64 {
	return budgetFactor*base.Insts + budgetFloor
}

// Evaluate times the packed program under the Outcome's machine, within
// PackedBudget of the profile run, and compares it with the profile run's
// baseline and data effects.
func (o *Outcome) Evaluate() (*Evaluation, error) {
	return o.EvaluateObserved(obs.Nop{})
}

// EvaluateObserved is Evaluate inside an "evaluate" span, recording the
// eval.* counters and the eval.speedup / eval.coverage gauges.
func (o *Outcome) EvaluateObserved(ob obs.Observer) (*Evaluation, error) {
	sp := ob.StartSpan(obs.StageEvaluate)
	defer sp.End()
	packedImg := o.packedImg
	if packedImg == nil {
		var err error
		if packedImg, err = o.Packed.Linearize(); err != nil {
			return nil, fmt.Errorf("core: linearize packed: %w", err)
		}
	}
	bc := cpu.NewBlockCache(packedImg)
	packedStats, packedM, err := cpu.RunTimedCached(o.Machine, packedImg, PackedBudget(o.Base), bc)
	if err != nil {
		CountRefusal(ob, strings.TrimPrefix(o.Program+"/"+o.Variant.Name(), "/"), err)
		return nil, fmt.Errorf("core: packed run: %w", err)
	}
	ph, pn := packedM.DataHash()
	ev := Compare(o.Base, o.Profile, packedStats, ph, pn)
	ob.Count(obs.EvalBaseCycles.Name, int64(o.Base.Cycles))
	ob.Count(obs.EvalPackedCycles.Name, int64(packedStats.Cycles))
	CountEngine(ob, bc)
	ob.Gauge(obs.EvalSpeedup.Name, ev.Speedup)
	ob.Gauge(obs.EvalCoverage.Name, ev.Coverage)
	ob.Observe(obs.EvalCycles.Name, float64(packedStats.Cycles))
	return &ev, nil
}

// CountRefusal accounts a packed run (run names input and variant) that
// err ended at its instruction budget, with one RunRefused event and one
// eval.budget_refused series, and reports whether err was such a refusal.
func CountRefusal(ob obs.Observer, run string, err error) bool {
	if !errors.Is(err, cpu.ErrInstLimit) {
		return false
	}
	ob.Emit(obs.Event{Kind: obs.RunRefused, Phase: -1, Name: run})
	ob.Count(obs.EvalBudgetRefused.For(run), 1)
	return true
}

// CountEngine records the block cache's and superblock tier's engine
// counters (the blockcache.* and superblock.* families) for one timed
// run through bc.
func CountEngine(ob obs.Observer, bc *cpu.BlockCache) {
	ob.Count(obs.BlockCacheHits.Name, int64(bc.Stats.Hits+bc.Stats.Chained))
	ob.Count(obs.BlockCacheMisses.Name, int64(bc.Stats.Misses))
	ob.Count(obs.BlockCacheEvictions.Name, int64(bc.Stats.Evicted))
	ob.Count(obs.SuperblockPromoted.Name, int64(bc.SB.Promoted))
	ob.Count(obs.SuperblockDemoted.Name, int64(bc.SB.Demoted))
	ob.Count(obs.SuperblockSideExits.Name, int64(bc.SB.SideExits))
	ob.Count(obs.SuperblockChained.Name, int64(bc.SB.ChainedInsts))
}
