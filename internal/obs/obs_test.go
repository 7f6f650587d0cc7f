package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// instrument performs one representative slice of pipeline
// instrumentation through the Observer interface: the same shape of
// calls core.RunObserved issues per stage.
func instrument(o Observer) {
	sp := o.StartSpan(StagePipeline)
	ps := o.StartSpan(StageProfile)
	o.Emit(Event{Kind: PhaseDetected, Phase: 0, N: 1})
	o.Count("profile.insts", 12345)
	ps.End()
	rs := o.StartSpan(StageRegion)
	o.Emit(Event{Kind: RegionGrown, Phase: 0, N: 2})
	o.Gauge("eval.speedup", 1.05)
	o.Observe("region.hot_blocks", 7)
	rs.End()
	sp.End()
}

func TestNopZeroAlloc(t *testing.T) {
	var o Observer = Nop{}
	allocs := testing.AllocsPerRun(100, func() { instrument(o) })
	if allocs != 0 {
		t.Fatalf("disabled-observer instrumentation allocates %.1f times per run, want 0", allocs)
	}
}

func TestRecorderSpansNestAndParent(t *testing.T) {
	r := NewRecorder()
	root := r.StartSpan("pipeline")
	inner := r.StartSpan("profile") // child of pipeline
	inner.End()
	sibling := r.StartSpan("region") // profile ended: also under pipeline
	sibling.End()
	root.End()

	tr := r.Export()
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(tr.Spans))
	}
	if tr.Spans[0].Parent != -1 {
		t.Errorf("root parent = %d, want -1", tr.Spans[0].Parent)
	}
	for i := 1; i < 3; i++ {
		if tr.Spans[i].Parent != tr.Spans[0].ID {
			t.Errorf("span %q parent = %d, want %d", tr.Spans[i].Name, tr.Spans[i].Parent, tr.Spans[0].ID)
		}
	}
	if tr.Spans[0].DurUS < tr.Spans[1].DurUS {
		t.Errorf("outer span shorter than inner: %d < %d", tr.Spans[0].DurUS, tr.Spans[1].DurUS)
	}
}

func TestRecorderDoubleEndHarmless(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan("a")
	sp.End()
	sp.End()
	Span{}.End() // zero Span
	if n := len(r.Export().Spans); n != 1 {
		t.Fatalf("spans = %d, want 1", n)
	}
}

func TestRecorderMetrics(t *testing.T) {
	r := NewRecorder()
	r.Count("x", 2)
	r.Count("x", 3)
	r.Gauge("g", 1.5)
	r.Gauge("g", 2.5)
	tr := r.Export()
	if tr.Metrics.Counters["x"] != 5 {
		t.Errorf("counter x = %d, want 5", tr.Metrics.Counters["x"])
	}
	if tr.Metrics.Gauges["g"] != 2.5 {
		t.Errorf("gauge g = %v, want 2.5 (last write wins)", tr.Metrics.Gauges["g"])
	}
}

func TestAbsorbMergesDeterministically(t *testing.T) {
	child := NewRecorder()
	cs := child.StartSpan("pipeline")
	child.Emit(Event{Kind: PackageBuilt, Phase: 1, Name: "pkg", N: 7})
	child.Count("pack.packages", 1)
	cs.End()
	ct := child.Export()

	parent := NewRecorder()
	suite := parent.StartSpan(StageSuite)
	parent.Count("pack.packages", 2)
	parent.Absorb(ct)
	suite.End()

	tr := parent.Export()
	if len(tr.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tr.Spans))
	}
	if tr.Spans[1].Name != "pipeline" || tr.Spans[1].Parent != tr.Spans[0].ID {
		t.Errorf("absorbed span %q parent %d, want pipeline under suite (%d)",
			tr.Spans[1].Name, tr.Spans[1].Parent, tr.Spans[0].ID)
	}
	if len(tr.Events) != 1 || tr.Events[0].Kind != "package_built" || tr.Events[0].N != 7 {
		t.Errorf("absorbed events wrong: %+v", tr.Events)
	}
	if tr.Metrics.Counters["pack.packages"] != 3 {
		t.Errorf("merged counter = %d, want 3", tr.Metrics.Counters["pack.packages"])
	}
	parent.Absorb(nil) // harmless
}

func TestTraceJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	sp := r.StartSpan("pipeline")
	r.Emit(Event{Kind: PhaseSkipped, Phase: 3, Name: "reason"})
	r.Count("c", 1)
	sp.End()

	var buf bytes.Buffer
	if err := r.Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Schema != TraceSchema {
		t.Errorf("schema = %q, want %q", back.Schema, TraceSchema)
	}
	if len(back.Spans) != 1 || len(back.Events) != 1 {
		t.Errorf("round trip lost records: %d spans, %d events", len(back.Spans), len(back.Events))
	}
	if back.Events[0].Kind != PhaseSkipped.String() || back.Events[0].Name != "reason" {
		t.Errorf("event round trip: %+v", back.Events[0])
	}
}

func TestNormalizeZeroesTimes(t *testing.T) {
	r := NewRecorder()
	r.StartSpan("a").End()
	tr := r.Export().Normalize()
	if tr.EpochUS != 0 || tr.Spans[0].StartUS != 0 || tr.Spans[0].DurUS != 0 {
		t.Errorf("Normalize left wall-clock fields: %+v", tr)
	}
}

func TestSpanTotals(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("region")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	totals := r.Export().SpanTotals()
	if len(totals) != 1 || totals[0].Name != "region" || totals[0].Count != 3 {
		t.Fatalf("totals = %+v", totals)
	}
	if totals[0].Total < 3*time.Millisecond {
		t.Errorf("total %v, want >= 3ms", totals[0].Total)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{PhaseDetected, PhaseFiltered, PhaseSkipped, RegionGrown, PackageBuilt, PackageLinked, PassApplied, RunRefused}
	if len(kinds) != len(kindNames) {
		t.Fatalf("test lists %d kinds, obs declares %d", len(kinds), len(kindNames))
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d renders %q", k, s)
		}
		seen[s] = true
		if kindFromString(s) != k {
			t.Errorf("kindFromString(%q) = %v, want %v", s, kindFromString(s), k)
		}
	}
}

// BenchmarkNopObserver measures (and via ReportAllocs documents) the
// disabled-observer instrumentation path; scripts/bench.sh prints it in
// its microbenchmark section.
func BenchmarkNopObserver(b *testing.B) {
	var o Observer = Nop{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instrument(o)
	}
}

// BenchmarkRecorderObserver is the enabled-path cost for comparison. A
// fresh recorder per iteration mirrors real usage (one per run) and keeps
// the benchmark's memory bounded.
func BenchmarkRecorderObserver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		instrument(NewRecorder())
	}
}

func TestLookupMetric(t *testing.T) {
	for name, want := range map[string]string{
		"store.hits":              "store.hits",
		"drift.score.m88ksim":     "drift.score",
		"drift.score_pct.gzip":    "drift.score_pct",
		"span_us.input:gzip/A":    "span_us",
		"span_us.variant:a.b":     "span_us",
		"vpackd.records.li":       "vpackd.records",
		"store.hitsx":             "",
		"drift":                   "",
		"drifty.score.m88ksim":    "",
		"eval.cycles_us.anything": "",
	} {
		m, ok := LookupMetric(name)
		if ok != (want != "") || m.Name != want {
			t.Errorf("LookupMetric(%q) = %q, %v; want %q", name, m.Name, ok, want)
		}
	}
	for _, m := range Declared() {
		if m.Kind == 0 || m.Help == "" || strings.ContainsAny(m.Help, "\n\\") {
			t.Errorf("declaration %+v: want a kind and a one-line help without backslashes", m)
		}
	}
}
