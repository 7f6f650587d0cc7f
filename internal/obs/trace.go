package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// TraceSchema versions the JSON trace export.
const TraceSchema = "vptrace/v1"

// Trace is the exported, JSON-serializable form of a Recorder: a span
// tree, the event stream and the metrics registry.
type Trace struct {
	Schema string `json:"schema"`
	// EpochUS is the recorder's span-clock origin as unix microseconds;
	// span start offsets are relative to it.
	EpochUS int64         `json:"epoch_us"`
	Spans   []SpanRecord  `json:"spans"`
	Events  []EventRecord `json:"events"`
	Metrics Metrics       `json:"metrics"`
}

// SpanRecord is one finished (or still-open) span. Parent is the index of
// the enclosing span in Trace.Spans, or -1 at the root.
type SpanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// EventRecord is one event with its kind rendered as a string.
type EventRecord struct {
	Kind  string `json:"kind"`
	Phase int    `json:"phase"`
	Name  string `json:"name,omitempty"`
	N     int64  `json:"n,omitempty"`
}

// Metrics is the exported counter/gauge/histogram registry.
type Metrics struct {
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramRecord `json:"histograms,omitempty"`
}

// HistogramRecord is one exported histogram: observation count, value
// sum, and per-bucket counts over the shared log-spaced layout (bucket i
// counts v <= 2^i; a trailing overflow slot catches the rest). Buckets is
// trimmed at its last non-zero slot.
type HistogramRecord struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// timeValuedMetric reports whether a histogram holds wall-clock values
// (microseconds) by naming convention: the automatic per-span histograms
// carry the span_us. prefix, and any explicitly recorded time histogram
// must use the _us suffix. Normalize zeroes exactly these.
func timeValuedMetric(name string) bool {
	return strings.HasPrefix(name, SpanUS.Name+".") || strings.HasSuffix(name, "_us")
}

func kindFromString(s string) EventKind {
	for k, name := range kindNames {
		if name == s {
			return EventKind(k)
		}
	}
	return PhaseDetected
}

func (er EventRecord) eventKind() EventKind { return kindFromString(er.Kind) }

// Export snapshots the recorder as a Trace. Open spans export with the
// duration they have accumulated so far.
func (r *Recorder) Export() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{Schema: TraceSchema, EpochUS: r.epoch.UnixMicro()}
	now := time.Since(r.epoch)
	for i, s := range r.spans {
		dur := s.dur
		if s.open {
			dur = now - s.start
		}
		t.Spans = append(t.Spans, SpanRecord{
			ID:      int32(i),
			Parent:  s.parent,
			Name:    s.name,
			StartUS: s.start.Microseconds(),
			DurUS:   dur.Microseconds(),
		})
	}
	for _, e := range r.events {
		t.Events = append(t.Events, EventRecord{
			Kind: e.Kind.String(), Phase: e.Phase, Name: e.Name, N: e.N,
		})
	}
	if len(r.counters) > 0 {
		t.Metrics.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			t.Metrics.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		t.Metrics.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			t.Metrics.Gauges[k] = v
		}
	}
	if len(r.hists) > 0 {
		t.Metrics.Histograms = make(map[string]HistogramRecord, len(r.hists))
		for k, h := range r.hists {
			t.Metrics.Histograms[k] = h.record()
		}
	}
	return t
}

// ReadTrace decodes one JSON trace and validates its schema marker.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", t.Schema, TraceSchema)
	}
	return &t, nil
}

// WriteJSON writes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Normalize zeroes every wall-clock field (epoch, span starts and
// durations, and the contents of time-valued histograms — span_us.* and
// *_us names) in place and returns t, making two traces of the same run
// byte-comparable; the golden-file schema test relies on it. Count-valued
// histograms (region sizes, link counts, simulated cycles) are
// deterministic and stay intact.
func (t *Trace) Normalize() *Trace {
	t.EpochUS = 0
	for i := range t.Spans {
		t.Spans[i].StartUS = 0
		t.Spans[i].DurUS = 0
	}
	for name := range t.Metrics.Histograms {
		if timeValuedMetric(name) {
			t.Metrics.Histograms[name] = HistogramRecord{}
		}
	}
	return t
}

// SpanTotal aggregates every span sharing one name.
type SpanTotal struct {
	Name  string
	Count int
	Total time.Duration
}

// SpanTotals aggregates span durations by name, in first-appearance
// order. Nested same-named spans each contribute their full duration.
func (t *Trace) SpanTotals() []SpanTotal {
	idx := make(map[string]int)
	var out []SpanTotal
	for _, s := range t.Spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, SpanTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += time.Duration(s.DurUS) * time.Microsecond
	}
	return out
}
