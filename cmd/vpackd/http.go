// HTTP/JSON shim: the v1 wire format and route table. Versioned under
// /v1 so the codec can evolve; everything else (/metrics, /trace,
// /healthz, /readyz, /debug/pprof) is the shared telemetry serving tier.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TraceHeader carries a request-scoped trace ID: clients may set it on
// ingest POSTs (the daemon mints an "ing-" ID otherwise), and the daemon
// echoes it on ingest responses and stamps package/provenance responses
// with the repack trace that built the served version.
const TraceHeader = "Vpackd-Trace"

// maxProfileBody caps a profile POST body; a larger one is refused with
// 413 before any record is ingested. The largest body the repo's own
// clients send (ten hot spots of vpr, ~55 KB) sits ~19x below it.
const maxProfileBody = 1 << 20

// maxProfileRecords caps the hot spots one profile POST may carry; a POST
// with more is refused with 422 (ErrBadProfile). Each record is merged
// under its shard's lock, so without the cap one 1 MiB body of empty
// records could hold that lock for hundreds of thousands of merges. The
// repo's own clients send 10 per POST.
const maxProfileRecords = 256

// profilePost is POST /v1/profiles/{program}'s body: detector hot spots
// in hsd.HotSpot's JSON form, as clients stream them. ProgramHash, when
// non-zero, must match the daemon's image for the program — a mismatch
// is answered 409 (the client's profile came from a different build).
type profilePost struct {
	ProgramHash uint64        `json:"program_hash,string"`
	HotSpots    []hsd.HotSpot `json:"hot_spots"`
}

// profileAck is the ingest response. Trace echoes the request's trace ID
// (client-supplied or daemon-minted), the handle for following the
// records through /v1/events and into a version's provenance chain.
type profileAck struct {
	Records int64  `json:"records"`
	Queued  bool   `json:"queued"`
	Trace   string `json:"trace"`
}

// programInfo is one row of GET /v1/programs.
type programInfo struct {
	Program     string `json:"program"`
	Input       string `json:"input"`
	Scale       int64  `json:"scale"`
	ProgramHash uint64 `json:"program_hash,string"`
	Records     int64  `json:"records"`
	Versions    int    `json:"versions"`
	Pending     bool   `json:"pending"`
	LastError   string `json:"last_error,omitempty"`
	// DriftScore is the program's live composite drift score (0 when
	// drift tracking is disabled or no baseline is published yet).
	DriftScore float64 `json:"drift_score"`
}

// timelineReply is GET /v1/timeline/{program}'s body.
type timelineReply struct {
	Program string                `json:"program"`
	Windows []drift.WindowSummary `json:"windows"`
}

// eventsReply is GET /v1/events' body: the retained events after the
// cursor, plus the ring cursors for resuming and gap detection.
type eventsReply struct {
	Events   []drift.StreamEvent `json:"events"`
	Earliest int64               `json:"earliest"`
	Next     int64               `json:"next"`
}

// Handler builds the daemon's full route table: the /v1 API plus the
// telemetry tier, whose /metrics always exposes the daemon surface.
func (d *Daemon) Handler() http.Handler {
	tsrv := telemetry.NewServer(d.rec, obs.DaemonSurface)
	tsrv.SetReady(true)

	mux := http.NewServeMux()
	mux.Handle("/", tsrv.Handler())
	mux.HandleFunc("GET /v1/programs", d.handlePrograms)
	mux.HandleFunc("POST /v1/profiles/{program}", d.handleProfile)
	mux.HandleFunc("GET /v1/packages/{program}/{version}", d.handlePackage)
	mux.HandleFunc("GET /v1/provenance/{program}/{version}", d.handleProvenance)
	mux.HandleFunc("GET /v1/drift/{program}", d.handleDrift)
	mux.HandleFunc("GET /v1/timeline/{program}", d.handleTimeline)
	mux.HandleFunc("GET /v1/events", d.handleEvents)
	return mux
}

func (d *Daemon) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	var list []programInfo
	for _, b := range orderedNames(d.programs) {
		st := d.programs[b]
		score := st.tracker.Score()
		st.mu.Lock()
		list = append(list, programInfo{
			Program:     st.name,
			Input:       st.input,
			Scale:       st.scale,
			ProgramHash: st.hash,
			Records:     st.records,
			Versions:    len(st.history),
			Pending:     st.pending,
			LastError:   st.lastErr,
			DriftScore:  score.Composite,
		})
		st.mu.Unlock()
	}
	writeJSON(w, list)
}

func (d *Daemon) handleProfile(w http.ResponseWriter, r *http.Request) {
	st, err := d.lookup(r.PathValue("program"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	var post profilePost
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProfileBody)).Decode(&post); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("vpackd: decode profile record: %v", err), code)
		return
	}
	if post.ProgramHash != 0 && post.ProgramHash != st.hash {
		err := fmt.Errorf("vpackd: profile of image %016x streamed to image %016x: %w",
			post.ProgramHash, st.hash, core.ErrStaleArtifact)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	trace, err := d.ingestTrace(r.Header.Get(TraceHeader))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set(TraceHeader, trace)
	if err := checkHotSpots(st.img, d.cfg.Detector.Sets*d.cfg.Detector.Ways, post.HotSpots); err != nil {
		d.reject(st, trace, len(post.HotSpots), err)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	d.record(st, post.HotSpots, trace)
	st.mu.Lock()
	ack := profileAck{Records: st.records, Queued: st.pending, Trace: trace}
	st.mu.Unlock()
	writeJSON(w, ack)
}

func (d *Daemon) handlePackage(w http.ResponseWriter, r *http.Request) {
	st, err := d.lookup(r.PathValue("program"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	pub, v, err := st.version(r.PathValue("version"))
	if err != nil {
		http.Error(w, fmt.Sprintf("vpackd: %s: %v", st.name, err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Vpackd-Version", fmt.Sprint(v))
	// Surface the version's provenance in headers (the body stays a bare
	// PackageSet for decoder compatibility); the full chain is one GET
	// away at /v1/provenance/{program}/{version}.
	w.Header().Set(TraceHeader, pub.prov.Trace)
	w.Header().Set("Vpackd-Drift-Score", strconv.FormatFloat(pub.prov.DriftScore, 'f', 4, 64))
	w.Write(pub.set)
}

func (d *Daemon) handleProvenance(w http.ResponseWriter, r *http.Request) {
	st, err := d.lookup(r.PathValue("program"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	pub, _, err := st.version(r.PathValue("version"))
	if err != nil {
		http.Error(w, fmt.Sprintf("vpackd: %s: %v", st.name, err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, pub.prov.Trace)
	if err := pub.prov.EncodeJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *Daemon) handleDrift(w http.ResponseWriter, r *http.Request) {
	st, err := d.lookup(r.PathValue("program"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, st.tracker.Status())
}

func (d *Daemon) handleTimeline(w http.ResponseWriter, r *http.Request) {
	st, err := d.lookup(r.PathValue("program"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, timelineReply{Program: st.name, Windows: st.tracker.Timeline()})
}

// handleEvents serves the bounded event ring with cursor pagination:
// ?after=N resumes past seq N, ?limit=M caps the page.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	var after int64
	var limit int
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("vpackd: bad after %q", s), http.StatusBadRequest)
			return
		}
		after = v
	}
	if s := r.URL.Query().Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("vpackd: bad limit %q", s), http.StatusBadRequest)
			return
		}
		limit = v
	}
	events, earliest, next := d.events.Since(after, limit)
	if events == nil {
		events = []drift.StreamEvent{}
	}
	writeJSON(w, eventsReply{Events: events, Earliest: earliest, Next: next})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// orderedNames returns map keys sorted, so /v1/programs is stable.
func orderedNames(m map[string]*programState) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
