// Package vacuumpack is the public API of the Vacuum Packing
// reproduction: hardware-detected program phases extracted into
// phase-specialized, relocated, optimizable code packages (Barnes, Merten,
// Nystrom, Hwu — MICRO 2002).
//
// The package is a thin facade over the implementation packages; the types
// it exposes are aliases, so values flow freely between the facade and the
// subsystem APIs for advanced use.
//
// A minimal end-to-end run:
//
//	bench, _ := vacuumpack.Benchmark("perl")
//	program := bench.Build(bench.Inputs[0])
//	outcome, err := vacuumpack.Run(vacuumpack.ScaledConfig(), vacuumpack.DefaultMachine(), program)
//	if err != nil { ... }
//	ev, err := outcome.Evaluate()
//	fmt.Printf("coverage %.1f%% speedup %.3f\n", ev.Coverage*100, ev.Speedup)
//
// Hand-written programs enter through Assemble (see the assembly syntax in
// the asm package docs), synthetic SPEC-analogue workloads through
// Benchmark/Benchmarks, and programmatic construction through NewBuilder.
package vacuumpack

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Program construction and inspection.
type (
	// Program is a structured VPIR program: functions of basic blocks.
	Program = prog.Program
	// Func is one function; Block one basic block.
	Func = prog.Func
	// Block is a basic block with an explicit terminator.
	Block = prog.Block
	// Builder constructs programs in Go code.
	Builder = prog.Builder
	// Image is a linearized (address-assigned) program.
	Image = prog.Image
)

// NewBuilder returns a builder over a fresh program.
func NewBuilder() *Builder { return prog.NewBuilder() }

// Assemble parses VPIR assembly into a verified program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// Disassemble renders a program in reassemblable VPIR assembly.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// Pipeline configuration and execution.
type (
	// Config gathers every pipeline knob; start from DefaultConfig or
	// ScaledConfig.
	Config = core.Config
	// Variant is one of the paper's four evaluation configurations.
	Variant = core.Variant
	// Outcome is a pipeline run's result: the packed program, the
	// baseline timing, the phase database, regions, packages and profile
	// statistics.
	Outcome = core.Outcome
	// Evaluation is the timed original-vs-packed comparison.
	Evaluation = core.Evaluation
)

// DefaultConfig returns the paper's configuration (Table 2 detector).
func DefaultConfig() Config { return core.DefaultConfig() }

// ScaledConfig returns the workload-scaled configuration the evaluation
// suite uses (see DESIGN.md for the scaling substitution).
func ScaledConfig() Config { return core.ScaledConfig() }

// Variants lists the four Figure 8/10 configurations in paper order.
func Variants() []Variant { return core.Variants() }

// Run executes the full Vacuum Packing pipeline on p: profile under the
// Hot Spot Detector on the timing model mc, filter phases, identify
// regions, extract + link + optimize packages. p is mutated into the
// packed program; the profile run is the baseline, so the Outcome
// carries its timing and Evaluate runs only the packed program. Run is a
// thin no-op-observer wrapper around RunObserved.
func Run(cfg Config, mc MachineConfig, p *Program) (*Outcome, error) { return core.Run(cfg, mc, p) }

// Sentinel pipeline failures, re-exported from core. Both are always
// wrapped with run detail, so match with errors.Is:
//
//	if errors.Is(err, vacuumpack.ErrNoPhases) { ... }
var (
	// ErrNoPhases: region identification left no usable phase (nothing
	// detected, or every detected phase was skipped).
	ErrNoPhases = core.ErrNoPhases
	// ErrNoPackages: package construction failed for every region.
	ErrNoPackages = core.ErrNoPackages
	// ErrVerifyFailed: the static verifier (Config.Verify) rejected a
	// pipeline stage's output; the chain carries the rule diagnostics.
	ErrVerifyFailed = core.ErrVerifyFailed
	// ErrStaleArtifact: a staged-pipeline artifact was applied to a
	// program whose image differs from the artifact's origin.
	ErrStaleArtifact = core.ErrStaleArtifact
	// ErrInstLimit: a timed run reached its instruction limit before
	// halting — for Evaluate, a packed run past its budget (a multiple
	// of the baseline's retired instructions plus a floor).
	ErrInstLimit = cpu.ErrInstLimit
)

// Staged pipeline API. The three stages behind Run are independently
// invokable and exchange typed, serializable artifacts (stable JSON
// codecs, content hashes) — the basis of persistent profiles and the
// vpackd continuous-optimization daemon:
//
//	img, _ := program.Linearize()
//	pa, err := vacuumpack.ProfileStage(cfg, img, nil)
//	ra, err := vacuumpack.RegionStage(cfg, img, pa)
//	set, err := vacuumpack.PackageStage(cfg, program, img, ra)
type (
	// ProfileArtifact is stage 1's output: the filtered phase database
	// plus profiling statistics, stamped with the image hash.
	ProfileArtifact = core.ProfileArtifact
	// RegionArtifact is stage 2's output: identified hot regions by
	// program-stable block IDs.
	RegionArtifact = core.RegionArtifact
	// PackageSet is stage 3's output: the packed program with its
	// installed, optimized packages, versionable and servable.
	PackageSet = core.PackageSet
)

// ProfileStage profiles img under the Hot Spot Detector (stage 1).
func ProfileStage(cfg Config, img *Image, obsFn func(*StepInfo)) (*ProfileArtifact, error) {
	return core.ProfileStage(cfg, img, obsFn)
}

// RegionStage selects phases and identifies hot regions (stage 2).
func RegionStage(cfg Config, img *Image, pa *ProfileArtifact) (*RegionArtifact, error) {
	return core.RegionStage(cfg, img, pa)
}

// PackageStage extracts, links and optimizes packages into p (stage 3).
func PackageStage(cfg Config, p *Program, img *Image, ra *RegionArtifact) (*PackageSet, error) {
	return core.PackageStage(cfg, p, img, ra)
}

// DecodeProfileArtifact, DecodeRegionArtifact and DecodePackageSet read
// artifacts previously written by their EncodeJSON methods.
var (
	DecodeProfileArtifact = core.DecodeProfileArtifact
	DecodeRegionArtifact  = core.DecodeRegionArtifact
	DecodePackageSet      = core.DecodePackageSet
)

// Observability. The pipeline reports stage-scoped spans, a typed event
// stream and counter/gauge metrics to an Observer; a Recorder collects
// them and exports a JSON Trace. The disabled path (Run) costs nothing.
type (
	// Observer receives spans, events and metrics from a pipeline run.
	Observer = obs.Observer
	// Span is a handle to one open stage span.
	Span = obs.Span
	// Event is one typed pipeline occurrence (phase detected/filtered/
	// skipped, region grown, package built/linked, pass applied).
	Event = obs.Event
	// EventKind types the event stream.
	EventKind = obs.EventKind
	// Metrics is the exported counter/gauge registry.
	Metrics = obs.Metrics
	// Recorder is the collecting Observer implementation.
	Recorder = obs.Recorder
	// Trace is a recorder's exported, JSON-serializable form. (The
	// Dynamo-style trace-extraction baseline is TraceConfig/TraceResult.)
	Trace = obs.Trace
	// HistogramRecord is one exported histogram (log-spaced buckets
	// shared by every histogram; see obs.HistogramBounds).
	HistogramRecord = obs.HistogramRecord
	// TraceDiff compares two traces' stage wall times and counters
	// (vptrace diff's engine); build one with DiffTraces.
	TraceDiff = obs.Diff
	// TraceDiffOptions parameterizes DiffTraces.
	TraceDiffOptions = obs.DiffOptions
)

// NewRecorder returns an empty collecting observer.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// DiffTraces compares two traces' per-stage wall-time totals and
// counters, flagging rows that regress past the threshold.
func DiffTraces(oldT, newT *Trace, opts TraceDiffOptions) *TraceDiff {
	return obs.DiffTraces(oldT, newT, opts)
}

// RunObserved is Run reporting every stage's spans, events and metrics to
// an observer:
//
//	rec := vacuumpack.NewRecorder()
//	outcome, err := vacuumpack.RunObserved(cfg, vacuumpack.DefaultMachine(), program, rec)
//	...
//	rec.Export().WriteJSON(os.Stdout)
func RunObserved(cfg Config, mc MachineConfig, p *Program, o Observer) (*Outcome, error) {
	return core.RunObserved(cfg, mc, p, o)
}

// Machine model.
type (
	// MachineConfig parameterizes the cycle-level EPIC timing model.
	MachineConfig = cpu.Config
	// TimingStats aggregates one timed run.
	TimingStats = cpu.TimingStats
	// Machine is the functional VPIR emulator.
	Machine = cpu.Machine
	// StepInfo describes one retired instruction for run observers.
	StepInfo = cpu.StepInfo
	// BlockCache holds an image's pre-decoded basic blocks for the
	// block-structured timed simulator.
	BlockCache = cpu.BlockCache
	// BlockCacheStats counts block-cache dispatches and evictions.
	BlockCacheStats = cpu.BlockCacheStats
	// SuperblockStats counts tier-1 trace promotion, demotion, side
	// exits and the instructions retired inside chained traces.
	SuperblockStats = cpu.SuperblockStats
)

// DefaultMachine returns the paper's Table 2 machine model.
func DefaultMachine() MachineConfig { return cpu.DefaultConfig() }

// NewMachine builds a functional emulator for a linearized image.
func NewMachine(img *Image) *Machine { return cpu.NewMachine(img) }

// RunTimed runs an image to completion under the timing model. limit
// bounds retired instructions (0 = unlimited); a run stopped by it fails
// with an ErrInstLimit-matchable error.
func RunTimed(mc MachineConfig, img *Image, limit uint64) (TimingStats, *Machine, error) {
	return cpu.RunTimed(mc, img, limit)
}

// NewBlockCache returns an empty basic-block cache bound to img.
func NewBlockCache(img *Image) *BlockCache { return cpu.NewBlockCache(img) }

// RunTimedCached is RunTimed with a caller-owned block cache, so repeated
// timed runs of one image skip block decode entirely.
func RunTimedCached(mc MachineConfig, img *Image, limit uint64, bc *BlockCache) (TimingStats, *Machine, error) {
	return cpu.RunTimedCached(mc, img, limit, bc)
}

// Profiling building blocks, for callers that want the detector stream
// without the rest of the pipeline.
type (
	// Detector is the Hot Spot Detector hardware model.
	Detector = hsd.Detector
	// DetectorConfig sizes the detector.
	DetectorConfig = hsd.Config
	// HotSpot is one raw detection.
	HotSpot = hsd.HotSpot
	// PhaseDB filters raw detections into unique phases.
	PhaseDB = phasedb.DB
	// Phase is one unique program phase.
	Phase = phasedb.Phase
	// Category is the Figure 9 branch taxonomy.
	Category = phasedb.Category
	// Categorization is the dynamic-weighted Figure 9 breakdown.
	Categorization = phasedb.Categorization
)

// NumCategories is the number of Figure 9 branch categories.
const NumCategories = phasedb.NumCategories

// NewDetector builds a Hot Spot Detector that calls onDetect per hot spot.
func NewDetector(cfg DetectorConfig, onDetect func(HotSpot)) *Detector {
	return hsd.New(cfg, onDetect)
}

// NewPhaseDB returns an empty phase database with the paper's §3.1
// filtering thresholds (zero-valued cfg fields take defaults).
func NewPhaseDB() *PhaseDB { return phasedb.New(phasedb.DefaultConfig()) }

// Workloads.
type (
	// Workload is one synthetic SPEC-analogue benchmark.
	Workload = workload.Benchmark
	// WorkloadInput is one of a workload's input rows.
	WorkloadInput = workload.Input
)

// Benchmark returns a workload by name (go, m88ksim, li, ijpeg, gzip, vpr,
// mcf, perl, vortex, parser, twolf, mpeg2dec).
func Benchmark(name string) (*Workload, error) { return workload.ByName(name) }

// Benchmarks returns the whole suite in the paper's Table 1 order.
func Benchmarks() []*Workload { return workload.Ordered() }

// Trace baseline.
type (
	// TraceConfig controls the Dynamo-style trace-extraction baseline.
	TraceConfig = trace.Config
	// TraceResult summarizes a trace deployment.
	TraceResult = trace.Result
)

// BuildTraces deploys the trace-based baseline on p from a phase database
// gathered on an identically-linearizing image.
func BuildTraces(cfg TraceConfig, p *Program, img *Image, db *PhaseDB) (*TraceResult, error) {
	return trace.Build(cfg, p, img, db)
}
