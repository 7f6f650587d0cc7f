// The daemon-facing event stream: a bounded ring of typed occurrences
// (ingests, window closes, drift scores, repacks, baseline publishes)
// that GET /v1/events serves with cursor semantics. Appending is a
// constant-time slot write under a mutex, so the ingest hot path never
// blocks on readers and the ring never grows past its capacity — old
// events are overwritten and the gap is observable through the cursor.
package drift

import "sync"

// Stream event kinds, as the /v1/events JSON reports them.
const (
	EventIngest      = "ingest"           // one accepted profile POST (N = records)
	EventRejected    = "profile_rejected" // one profile POST refused at ingest (N = records; Detail = reason)
	EventWindow      = "drift_window"     // one closed analysis window (N = records, Score = composite)
	EventRepackStart = "repack_start"     // a worker picked a shard off the queue
	EventRepackDone  = "repack_done"      // a repack finished (N = version; Detail = error)
	EventBaseline    = "baseline"         // a published version became the drift baseline (N = version)
)

// StreamEvent is one daemon occurrence in the /v1/events ring.
type StreamEvent struct {
	// Seq numbers events from 1, monotonically; a reader that sees a jump
	// between its cursor and Earliest missed overwritten events.
	Seq int64 `json:"seq"`
	// UnixUS stamps the event in unix microseconds.
	UnixUS  int64  `json:"unix_us"`
	Kind    string `json:"kind"`
	Program string `json:"program,omitempty"`
	// Trace is the request-scoped trace ID the event belongs to (an
	// ingest's or a repack's).
	Trace  string  `json:"trace,omitempty"`
	N      int64   `json:"n,omitempty"`
	Score  float64 `json:"score,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// DefaultEventRing is the default ring capacity.
const DefaultEventRing = 1024

// EventRing is the bounded, never-blocking event buffer.
type EventRing struct {
	mu   sync.Mutex
	buf  []StreamEvent
	next int64 // seq the next Append assigns
}

// NewEventRing returns a ring retaining the last capacity events
// (<= 0 selects DefaultEventRing).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventRing
	}
	return &EventRing{buf: make([]StreamEvent, capacity), next: 1}
}

// Append stamps e with the next sequence number and stores it, evicting
// the oldest event when the ring is full. It returns the assigned seq.
func (r *EventRing) Append(e StreamEvent) int64 {
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	r.buf[e.Seq%int64(len(r.buf))] = e
	r.mu.Unlock()
	return e.Seq
}

// Since returns up to limit retained events with Seq > after, oldest
// first (limit <= 0 means all). earliest is the oldest retained seq (0
// when the ring is empty) — a reader whose cursor is below earliest-1
// has missed events — and next is the cursor to resume from.
func (r *EventRing) Since(after int64, limit int) (events []StreamEvent, earliest, next int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := r.next - 1
	if last == 0 {
		return nil, 0, after
	}
	earliest = last - int64(len(r.buf)) + 1
	if earliest < 1 {
		earliest = 1
	}
	from := after + 1
	if from < earliest {
		from = earliest
	}
	if from > last {
		return nil, earliest, after
	}
	n := last - from + 1
	if limit > 0 && n > int64(limit) {
		n = int64(limit)
	}
	events = make([]StreamEvent, 0, n)
	for seq := from; seq < from+n; seq++ {
		events = append(events, r.buf[seq%int64(len(r.buf))])
	}
	return events, earliest, from + n - 1
}

// Len reports how many events the ring currently retains.
func (r *EventRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next - 1
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return int(n)
}
