// Package obs is the pipeline observability layer: stage-scoped spans
// (name, wall time, parent), a typed event stream (phase detected /
// filtered / skipped, region grown, package built / linked, pass applied)
// and a counter/gauge metrics registry, with JSON export.
//
// Two implementations of Observer exist: Nop, whose methods do nothing and
// allocate nothing (the disabled path every library entry point defaults
// to), and *Recorder, a mutex-guarded in-memory collector. Per-worker
// recorders from a parallel run merge deterministically via Absorb, so a
// suite trace is byte-identical (modulo wall times) at every -j setting.
package obs

import (
	"sync"
	"time"
)

// Canonical stage-span names, one per pipeline stage plus the two
// enclosing scopes. Instrumented code uses these so traces aggregate by
// stage regardless of which layer opened the span.
const (
	StageSuite    = "suite"
	StagePipeline = "pipeline"
	StageProfile  = "profile"
	StageFilter   = "filter"
	StageRegion   = "region"
	StagePackage  = "package"
	StageLink     = "link"
	StageOptimize = "optimize"
	StageEvaluate = "evaluate"
)

// Stages lists the canonical stage names in pipeline order (enclosing
// scopes first). CLI metric tables render rows in this order.
func Stages() []string {
	return []string{
		StageSuite, StagePipeline, StageProfile, StageFilter,
		StageRegion, StagePackage, StageLink, StageOptimize, StageEvaluate,
	}
}

// EventKind types the event stream.
type EventKind uint8

// Event kinds. PhaseFiltered is a raw detection the software filter merged
// into an existing phase; PhaseSkipped is a phase dropped later in the
// pipeline (Event.Name carries the reason); RunRefused is a packed run
// stopped at its instruction budget (Event.Name names the input and
// variant). Drift has no event kind here:
// the drift.* metrics carry its state, and vpackd's /v1/events ring
// records each closed window and baseline.
const (
	PhaseDetected EventKind = iota
	PhaseFiltered
	PhaseSkipped
	RegionGrown
	PackageBuilt
	PackageLinked
	PassApplied
	RunRefused
)

var kindNames = [...]string{
	PhaseDetected: "phase_detected",
	PhaseFiltered: "phase_filtered",
	PhaseSkipped:  "phase_skipped",
	RegionGrown:   "region_grown",
	PackageBuilt:  "package_built",
	PackageLinked: "package_linked",
	PassApplied:   "pass_applied",
	RunRefused:    "run_refused",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed pipeline occurrence. Phase is the phase ID the event
// concerns, or -1 when it has none. Name carries the pass / package name
// or skip reason; N a kind-specific magnitude (blocks grown, instructions
// moved, …).
type Event struct {
	Kind  EventKind
	Phase int
	Name  string
	N     int64
}

// Observer receives spans, events and metrics from an instrumented
// pipeline run. Implementations must be safe for concurrent use; Nop is
// the zero-cost disabled implementation.
type Observer interface {
	// Enabled reports whether the observer records anything. Instrumented
	// code may use it to skip building expensive span names or event
	// payloads; plain Emit/Count calls need no guard.
	Enabled() bool
	// StartSpan opens a span parented under the most recently started
	// still-open span (or at the root). The caller must End it.
	StartSpan(name string) Span
	// Emit appends one event to the stream.
	Emit(e Event)
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge to v (last write wins).
	Gauge(name string, v float64)
	// Observe adds one sample to the named histogram (fixed log-spaced
	// buckets shared by every histogram; see HistogramBounds).
	Observe(name string, v float64)
	// Absorb merges a finished trace (typically from a per-worker
	// recorder) into this observer: its root spans are re-parented under
	// the currently open span, events append in order, counters and
	// histogram buckets add and gauges overwrite.
	Absorb(t *Trace)
}

// Nop is the disabled observer: every method is a no-op and the whole
// instrumentation path allocates nothing (asserted by TestNopZeroAlloc).
type Nop struct{}

func (Nop) Enabled() bool           { return false }
func (Nop) StartSpan(string) Span   { return Span{} }
func (Nop) Emit(Event)              {}
func (Nop) Count(string, int64)     {}
func (Nop) Gauge(string, float64)   {}
func (Nop) Observe(string, float64) {}
func (Nop) Absorb(*Trace)           {}

// Span is a handle to one open span. The zero Span (from Nop or an
// already-ended recorder) is valid and inert.
type Span struct {
	rec *Recorder
	id  int32
}

// End closes the span, fixing its duration. Ending the zero Span or
// ending twice is harmless.
func (s Span) End() {
	if s.rec != nil {
		s.rec.endSpan(s.id)
	}
}

// Recorder is the collecting Observer. All methods are safe for
// concurrent use; under heavy parallelism prefer one Recorder per worker
// merged with Absorb so event order stays deterministic.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []spanRec
	stack    []int32 // open spans, innermost last
	events   []Event
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
}

type spanRec struct {
	name   string
	parent int32
	start  time.Duration // since epoch
	dur    time.Duration
	open   bool
}

// NewRecorder returns an empty recorder whose span clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Enabled always reports true for a Recorder.
func (r *Recorder) Enabled() bool { return true }

// StartSpan opens a span under the innermost open span.
func (r *Recorder) StartSpan(name string) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, spanRec{
		name:   name,
		parent: parent,
		start:  time.Since(r.epoch),
		open:   true,
	})
	r.stack = append(r.stack, id)
	return Span{rec: r, id: id}
}

func (r *Recorder) endSpan(id int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	if !s.open {
		return
	}
	s.open = false
	s.dur = time.Since(r.epoch) - s.start
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == id {
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	// Every finished span feeds the per-name wall-time distribution; the
	// span_us. prefix marks these as time-valued for Normalize.
	r.observeLocked(SpanUS.For(s.name), float64(s.dur.Microseconds()))
}

// ActiveSpan returns the innermost open span's name.
func (r *Recorder) ActiveSpan() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.stack); n > 0 {
		return r.spans[r.stack[n-1]].name, true
	}
	return "", false
}

// ActiveStage returns the innermost open span whose name is one of the
// canonical stage names — the value the obs slog handler stamps records
// with.
func (r *Recorder) ActiveStage() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.stack) - 1; i >= 0; i-- {
		if name := r.spans[r.stack[i]].name; stageSet[name] {
			return name, true
		}
	}
	return "", false
}

var stageSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, s := range Stages() {
		m[s] = true
	}
	return m
}()

// Emit appends one event.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Count adds delta to a counter.
func (r *Recorder) Count(name string, delta int64) {
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge sets a gauge.
func (r *Recorder) Gauge(name string, v float64) {
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one sample to the named histogram.
func (r *Recorder) Observe(name string, v float64) {
	r.mu.Lock()
	r.observeLocked(name, v)
	r.mu.Unlock()
}

func (r *Recorder) observeLocked(name string, v float64) {
	h := r.hists[name]
	if h == nil {
		if r.hists == nil {
			r.hists = make(map[string]*hist)
		}
		h = &hist{}
		r.hists[name] = h
	}
	h.observe(v)
}

// Absorb merges a finished trace into the recorder: spans keep their
// relative order and timing (re-anchored to this recorder's epoch via the
// trace's own epoch), root spans re-parent under the innermost open span,
// events append in order, counters and histogram buckets add, gauges
// overwrite.
func (r *Recorder) Absorb(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := int32(len(r.spans))
	top := int32(-1)
	if n := len(r.stack); n > 0 {
		top = r.stack[n-1]
	}
	offset := time.Duration(t.EpochUS)*time.Microsecond - time.Duration(r.epoch.UnixMicro())*time.Microsecond
	for i, sr := range t.Spans {
		parent := top
		if sr.Parent >= 0 && sr.Parent < int32(i) {
			parent = sr.Parent + base
		}
		r.spans = append(r.spans, spanRec{
			name:   sr.Name,
			parent: parent,
			start:  time.Duration(sr.StartUS)*time.Microsecond + offset,
			dur:    time.Duration(sr.DurUS) * time.Microsecond,
		})
	}
	for _, er := range t.Events {
		r.events = append(r.events, Event{Kind: er.eventKind(), Phase: er.Phase, Name: er.Name, N: er.N})
	}
	if len(t.Metrics.Counters) > 0 && r.counters == nil {
		r.counters = make(map[string]int64)
	}
	for k, v := range t.Metrics.Counters {
		r.counters[k] += v
	}
	if len(t.Metrics.Gauges) > 0 && r.gauges == nil {
		r.gauges = make(map[string]float64)
	}
	for k, v := range t.Metrics.Gauges {
		r.gauges[k] = v
	}
	for k, hr := range t.Metrics.Histograms {
		h := r.hists[k]
		if h == nil {
			if r.hists == nil {
				r.hists = make(map[string]*hist)
			}
			h = &hist{}
			r.hists[k] = h
		}
		h.merge(hr)
	}
}
