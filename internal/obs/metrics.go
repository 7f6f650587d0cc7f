package obs

import "fmt"

// MetricKind types a declared metric family.
type MetricKind uint8

// Metric kinds, one per Observer recording method: Count, Gauge, Observe.
const (
	Counter MetricKind = iota + 1
	Gauge
	Histogram
)

func (k MetricKind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return "unknown"
}

// Surface is a serving endpoint whose /metrics renders a fixed set of
// declared families even before their first sample (counters and gauges
// as 0, histograms with all-zero buckets), so dashboards and alerts never
// see series gaps. Surfaces nest: vpackd serves everything the pipeline
// server does, plus the daemon and drift series.
type Surface uint8

const (
	// PipelineSurface is vpbench -serve: engine, store and equiv series.
	PipelineSurface Surface = iota + 1
	// DaemonSurface is vpackd.
	DaemonSurface
)

// Metric declares one metric family. Name is the flat obs name callers
// record under; per-program and per-span series append ".<suffix>" to it
// (see For). Always is the smallest Surface that exposes the family
// before its first sample, or 0 when none does.
type Metric struct {
	Name   string
	Kind   MetricKind
	Help   string
	Always Surface
}

// For names one member series of m's family: m.Name + "." + suffix.
func (m Metric) For(suffix string) string { return m.Name + "." + suffix }

// AlwaysOn reports whether surface s exposes m before its first sample.
func (m Metric) AlwaysOn(s Surface) bool { return m.Always != 0 && m.Always <= s }

var (
	table  []Metric
	byName = make(map[string]Metric)
)

func declare(name string, kind MetricKind, help string, always Surface) Metric {
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q declared twice", name))
	}
	m := Metric{Name: name, Kind: kind, Help: help, Always: always}
	table = append(table, m)
	byName[name] = m
	return m
}

// Declared returns every declared family in declaration order. The slice
// is shared; callers must not modify it.
func Declared() []Metric { return table }

// LookupMetric resolves a recorded metric name to its declaration: an
// exact match, or the shortest declared name that name extends by
// ".<suffix>" (per-program drift/daemon series, span_us.<span>).
func LookupMetric(name string) (Metric, bool) {
	if m, ok := byName[name]; ok {
		return m, true
	}
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			continue
		}
		if m, ok := byName[name[:i]]; ok {
			return m, true
		}
	}
	return Metric{}, false
}

// Recorder bookkeeping: the automatic per-span wall-time distribution.
// Time-valued histograms carry the span_us. prefix or a _us suffix;
// Normalize zeroes exactly those.
var SpanUS = declare("span_us", Histogram, "Wall time of finished spans in microseconds, one series per span name.", 0)

// Profiling under the Hot Spot Detector, and the phase filter.
var (
	ProfileInsts         = declare("profile.insts", Counter, "Instructions retired by profiling runs.", 0)
	ProfileBranches      = declare("profile.branches", Counter, "Conditional branches the Hot Spot Detector observed.", 0)
	ProfileDetections    = declare("profile.detections", Counter, "Hot spots the Hot Spot Detector reported.", 0)
	ProfilePhases        = declare("profile.phases", Counter, "Distinct phases in the filtered phase database.", 0)
	ProfileRedundant     = declare("profile.redundant", Counter, "Detections the phase filter merged into an existing phase.", 0)
	FilterSelectedPhases = declare("filter.selected_phases", Counter, "Phases selected for region growth.", 0)
)

// Region growth, packaging, linking and the package optimizer.
var (
	RegionProfiledBranches = declare("region.profiled_branches", Counter, "Hot-spot branches mapped onto region blocks.", 0)
	RegionInferredHot      = declare("region.inferred_hot", Counter, "Blocks inferred hot from profiled neighbours.", 0)
	RegionInferredCold     = declare("region.inferred_cold", Counter, "Blocks inferred cold from profiled neighbours.", 0)
	RegionGrownBlocks      = declare("region.grown_blocks", Counter, "Blocks added by region growth.", 0)
	RegionHotBlocks        = declare("region.hot_blocks", Histogram, "Hot blocks per identified region.", 0)
	PackPackages           = declare("pack.packages", Counter, "Packages built.", 0)
	PackPackageBlocks      = declare("pack.package_blocks", Counter, "Blocks across all built packages.", 0)
	PackInlinedCalls       = declare("pack.inlined_calls", Counter, "Calls inlined into packages.", 0)
	PackLinks              = declare("pack.links", Counter, "Package exits linked directly to another package.", 0)
	PackLaunchPoints       = declare("pack.launch_points", Counter, "Launch points installed in the original code.", 0)
	PackMonitors           = declare("pack.monitors", Counter, "Phase monitors installed.", 0)
	PackLinksPerPackage    = declare("pack.links_per_package", Histogram, "Linked exits per package.", 0)
	OptMergedBlocks        = declare("opt.merged_blocks", Counter, "Blocks removed by the merge pass.", 0)
	OptSunkInsts           = declare("opt.sunk_insts", Counter, "Instructions moved by the cold-code sinking pass.", 0)
	OptLaidOutBlocks       = declare("opt.laid_out_blocks", Counter, "Blocks ordered by the layout pass.", 0)
	OptScheduledBlocks     = declare("opt.scheduled_blocks", Counter, "Blocks rescheduled by the scheduling pass.", 0)
	VerifyChecked          = declare("verify.checked", Counter, "Static verifier invocations.", 0)
	VerifyViolations       = declare("verify.violations", Counter, "Static verifier diagnostics.", 0)
)

// Translation validation (internal/equiv, gated by the -equiv knob).
var (
	EquivPackages    = declare("equiv.packages", Counter, "Optimized packages checked by translation validation.", PipelineSurface)
	EquivPathsProved = declare("equiv.paths_proved", Counter, "Package paths proved equivalent symbolically.", PipelineSurface)
	EquivViolations  = declare("equiv.violations", Counter, "Counterexamples refuting a package's equivalence.", PipelineSurface)
)

// Timed evaluation and its two-tier execution engine: basic-block cache
// traffic and superblock (tier 1) trace activity.
var (
	EvalBaseCycles      = declare("eval.base_cycles", Counter, "Simulated cycles of the original program.", 0)
	EvalPackedCycles    = declare("eval.packed_cycles", Counter, "Simulated cycles of the packed program.", 0)
	EvalSpeedup         = declare("eval.speedup", Gauge, "Base cycles over packed cycles of the last evaluation.", 0)
	EvalCoverage        = declare("eval.coverage", Gauge, "Fraction of the last packed run retired from package code.", 0)
	EvalCycles          = declare("eval.cycles", Histogram, "Simulated cycles per timed packed run.", 0)
	EvalBudgetRefused   = declare("eval.budget_refused", Counter, "Packed runs stopped at their instruction budget, one series per input and variant.", 0)
	EvalMemoHits        = declare("eval_memo.hits", Counter, "Suite variants whose packed program another variant of the same input had already timed.", 0)
	EvalMemoMisses      = declare("eval_memo.misses", Counter, "Distinct packed programs the suite timed, one per input and image.", 0)
	SuiteInputElapsed   = declare("suite.input_elapsed_us", Histogram, "Wall time per suite input in microseconds.", 0)
	BlockCacheHits      = declare("blockcache.hits", Counter, "Block cache lookups served from the cache, chained ones included.", PipelineSurface)
	BlockCacheMisses    = declare("blockcache.misses", Counter, "Block cache lookups that decoded a new block.", PipelineSurface)
	BlockCacheEvictions = declare("blockcache.evictions", Counter, "Blocks evicted from the block cache.", PipelineSurface)
	SuperblockPromoted  = declare("superblock.promoted", Counter, "Hot traces promoted to superblocks.", PipelineSurface)
	SuperblockDemoted   = declare("superblock.demoted", Counter, "Superblocks demoted after too many side exits.", PipelineSurface)
	SuperblockSideExits = declare("superblock.side_exits", Counter, "Superblock executions that left the trace early.", PipelineSurface)
	SuperblockChained   = declare("superblock.chained_insts", Counter, "Instructions retired inside superblocks.", PipelineSurface)
)

// The persistent artifact store (internal/cas). The suite splits traffic
// by artifact class; the unsuffixed hit/miss pair aggregates.
var (
	StoreHits          = declare("store.hits", Counter, "Artifact store lookups that hit.", PipelineSurface)
	StoreMisses        = declare("store.misses", Counter, "Artifact store lookups that missed.", PipelineSurface)
	StoreProfileHits   = declare("store.profile_hits", Counter, "Profile artifacts served by the store.", 0)
	StoreProfileMisses = declare("store.profile_misses", Counter, "Profile artifacts the store did not hold.", 0)
	StorePackageHits   = declare("store.package_hits", Counter, "Package sets served by the store.", 0)
	StorePackageMisses = declare("store.package_misses", Counter, "Package sets the store did not hold.", 0)
	StoreBytes         = declare("store.bytes", Gauge, "On-disk size of the artifact store in bytes.", PipelineSurface)
	StoreSegments      = declare("store.segments", Gauge, "Segment files in the artifact store.", PipelineSurface)
)

// The continuous-optimization daemon (cmd/vpackd). DaemonRecords also
// has one series per program.
var (
	DaemonRecords         = declare("vpackd.records", Counter, "Hot-spot records accepted.", DaemonSurface)
	DaemonRepacks         = declare("vpackd.repacks", Counter, "Repacks completed.", DaemonSurface)
	DaemonQueueRejected   = declare("vpackd.queue_rejected", Counter, "Repack shards rejected because the queue was full.", DaemonSurface)
	DaemonProfileRejected = declare("vpackd.profile_rejected", Counter, "Profile POSTs refused at ingest because a hot-spot record does not fit the program's image.", DaemonSurface)
	DaemonVersions        = declare("vpackd.versions", Counter, "Package versions published.", DaemonSurface)
	DaemonRecovered       = declare("vpackd.versions_recovered", Counter, "Versions reloaded from the artifact store at boot, served without a repack.", DaemonSurface)
	DaemonEquivRejected   = declare("vpackd.equiv_rejected", Counter, "Repacks withheld because translation validation refuted a package.", DaemonSurface)
	DaemonRepackPanics    = declare("vpackd.repack_panics", Counter, "Repacks whose build panicked; the version failed and the last good one keeps serving.", DaemonSurface)
	DaemonQueueDepth      = declare("vpackd.queue_depth", Gauge, "Shards waiting in the bounded repack queue.", DaemonSurface)
	DaemonQueueWait       = declare("vpackd.queue_wait_us", Histogram, "Enqueue to worker pickup of a repack shard in microseconds.", DaemonSurface)
	DaemonRepackLatency   = declare("vpackd.repack_latency_us", Histogram, "Worker pickup to publish of a repack in microseconds.", DaemonSurface)
)

// Drift observability (internal/drift): incoming profile shards scored
// against the phase snapshot behind the latest published package set.
// Each family has one series per program; the unsuffixed gauges hold the
// maximum across programs.
var (
	DriftScore            = declare("drift.score", Gauge, "Composite drift score in [0,1]; 0 means the recent windows match the baseline profile.", DaemonSurface)
	DriftPeak             = declare("drift.peak", Gauge, "Highest composite drift score ever observed, never reset.", DaemonSurface)
	DriftHotSetDivergence = declare("drift.hot_set_divergence", Gauge, "Total-variation distance between recent and baseline branch-weight distributions.", DaemonSurface)
	DriftBiasFlips        = declare("drift.bias_flips", Gauge, "Branches common to recent windows and the baseline whose bias flipped.", DaemonSurface)
	DriftFilterCrossings  = declare("drift.filter_crossings", Gauge, "Fraction of recent windows that the 30% filter rule would found as a new phase.", DaemonSurface)
	DriftBaselineVersion  = declare("drift.baseline_version", Gauge, "Published version the drift baseline came from; 0 means no baseline yet.", DaemonSurface)
	DriftWindows          = declare("drift.windows", Counter, "Drift analysis windows closed.", DaemonSurface)
	DriftSamples          = declare("drift.samples", Counter, "Hot-spot records observed by drift tracking.", DaemonSurface)
	DriftScorePct         = declare("drift.score_pct", Histogram, "Per-window composite drift score as a percentage.", DaemonSurface)
)
