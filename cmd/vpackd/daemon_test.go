package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// testDriftCfg sizes the drift trackers small enough that the handful of
// records a test streams closes windows.
var testDriftCfg = drift.Config{Window: 2, Ring: 16, Recent: 2}

// newTestDaemon builds a one-benchmark daemon at scale 1 (the test
// scale the rest of the repo uses) with a small batch so a handful of
// records triggers a repack.
func newTestDaemon(t testing.TB, batch int) (*Daemon, *obs.Recorder) {
	t.Helper()
	return newTestDaemonStore(t, batch, nil)
}

// newTestDaemonStore is newTestDaemon with a persistent artifact store;
// the daemon owns it (Close closes it), so restart tests reopen the
// directory for the next incarnation.
func newTestDaemonStore(t testing.TB, batch int, store *cas.Store) (*Daemon, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	d, err := NewDaemon(core.ScaledConfig(), []string{"m88ksim"}, 1, 2, 4, batch,
		testDriftCfg, store, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, rec
}

// captureSpots profiles the daemon's own image and returns the raw
// detector output — genuine hot-spot records, not mocks.
func captureSpots(t testing.TB, d *Daemon, name string) []hsd.HotSpot {
	t.Helper()
	spots, err := core.HotSpots(d.cfg, d.programs[name].img)
	if err != nil {
		t.Fatal(err)
	}
	if len(spots) == 0 {
		t.Fatal("profiling detected no hot spots")
	}
	return spots
}

func postSpots(t *testing.T, h http.Handler, program string, hash uint64, spots []hsd.HotSpot) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(profilePost{ProgramHash: hash, HotSpots: spots})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profiles/"+program, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// awaitVersion polls the package endpoint until the daemon has built at
// least one version.
func awaitVersion(t *testing.T, h http.Handler, program string) *httptest.ResponseRecorder {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		w := get(h, "/v1/packages/"+program+"/latest")
		if w.Code == http.StatusOK {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("no package version after 60s: %s", w.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newEquivDaemon is newTestDaemon with translation validation on.
func newEquivDaemon(t *testing.T, batch int) (*Daemon, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	d, err := NewDaemon(cfg, []string{"m88ksim"}, 1, 2, 4, batch,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, rec
}

// awaitCount polls until the recorder's counter reaches n. Each round of
// TestDaemonRepackPanicIsolated posts one batch and waits for its repack,
// so every repack snapshots exactly the records posted before it.
func awaitCount(t *testing.T, rec *obs.Recorder, counter string, n int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for rec.Export().Metrics.Counters[counter] < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s below %d after 60s", counter, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// Program discovery advertises the shard and its image hash.
	w := get(h, "/v1/programs")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/programs: %d", w.Code)
	}
	var progs []programInfo
	if err := json.Unmarshal(w.Body.Bytes(), &progs); err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Program != "m88ksim" {
		t.Fatalf("programs = %+v", progs)
	}
	if progs[0].ProgramHash != d.programs["m88ksim"].hash {
		t.Fatalf("advertised hash %016x, shard hash %016x", progs[0].ProgramHash, d.programs["m88ksim"].hash)
	}

	// Stream enough records to cross the batch threshold.
	for i := 0; i < 3; i++ {
		if w := postSpots(t, h, "m88ksim", progs[0].ProgramHash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}

	// The daemon repacks and publishes a version.
	w = awaitVersion(t, h, "m88ksim")
	set, err := core.DecodePackageSet(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if set.ProgramHash != progs[0].ProgramHash {
		t.Fatalf("package hash %016x, program hash %016x", set.ProgramHash, progs[0].ProgramHash)
	}
	if len(set.Packages) == 0 {
		t.Fatal("published PackageSet has no packages")
	}
	packed, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	img, err := packed.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if core.ImageHash(img) != set.PackedHash {
		t.Fatalf("reassembled image %016x, packed hash %016x", core.ImageHash(img), set.PackedHash)
	}

	// Explicit version numbers resolve; absurd ones don't.
	if w := get(h, "/v1/packages/m88ksim/1"); w.Code != http.StatusOK {
		t.Fatalf("GET version 1: %d", w.Code)
	}
	if w := get(h, "/v1/packages/m88ksim/999"); w.Code != http.StatusNotFound {
		t.Fatalf("GET version 999: %d", w.Code)
	}
	if w := get(h, "/v1/packages/m88ksim/bogus"); w.Code != http.StatusNotFound {
		t.Fatalf("GET version bogus: %d", w.Code)
	}

	// /metrics exports the daemon series.
	if missing := telemetry.MissingSeries(get(h, "/metrics").Body.String(), obs.DaemonSurface); len(missing) > 0 {
		t.Errorf("/metrics is missing %v", missing)
	}
}

func TestDaemonUnknownProgram(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()

	if w := postSpots(t, h, "nope", 0, nil); w.Code != http.StatusNotFound {
		t.Fatalf("POST to unknown program: %d", w.Code)
	}
	if w := get(h, "/v1/packages/nope/latest"); w.Code != http.StatusNotFound {
		t.Fatalf("GET unknown program: %d", w.Code)
	}
	if _, err := d.lookup("nope"); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("lookup error %v, want ErrUnknownProgram", err)
	}
	_, err := NewDaemon(core.ScaledConfig(), []string{"nope"}, 1, 1, 1, 1,
		testDriftCfg, nil, obs.NewRecorder(), slog.New(slog.DiscardHandler))
	if !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("NewDaemon error %v, want ErrUnknownProgram", err)
	}
}

func TestDaemonStaleProfile(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	w := postSpots(t, h, "m88ksim", d.programs["m88ksim"].hash^1, spots)
	if w.Code != http.StatusConflict {
		t.Fatalf("stale POST: %d, want 409", w.Code)
	}
	if !strings.Contains(w.Body.String(), core.ErrStaleArtifact.Error()) {
		t.Fatalf("409 body %q does not name the stale-artifact error", w.Body.String())
	}
	// A zero hash means the client didn't claim a build; accept it.
	if w := postSpots(t, h, "m88ksim", 0, spots[:1]); w.Code != http.StatusOK {
		t.Fatalf("hashless POST: %d: %s", w.Code, w.Body.String())
	}
}

// TestDaemonOversizedProfile: a profile POST over maxProfileBody is
// refused with 413 before any record is ingested, and the daemon keeps
// accepting well-sized POSTs afterwards.
func TestDaemonOversizedProfile(t *testing.T) {
	d, rec := newTestDaemon(t, 1000)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")
	hash := d.programs["m88ksim"].hash

	var big []hsd.HotSpot
	for size := 0; size <= maxProfileBody; {
		big = append(big, spots...)
		body, err := json.Marshal(profilePost{ProgramHash: hash, HotSpots: big})
		if err != nil {
			t.Fatal(err)
		}
		size = len(body)
	}
	if w := postSpots(t, h, "m88ksim", hash, big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: %d, want 413: %s", w.Code, w.Body.String())
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonRecords.Name]; got != 0 {
		t.Fatalf("oversized POST ingested %d records", got)
	}

	if w := postSpots(t, h, "m88ksim", hash, spots[:1]); w.Code != http.StatusOK {
		t.Fatalf("POST after the oversized one: %d: %s", w.Code, w.Body.String())
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonRecords.Name]; got != 1 {
		t.Fatalf("%s = %d after one accepted record, want 1", obs.DaemonRecords.Name, got)
	}
}

// TestDaemonBadProfile: a POST carrying more than maxProfileRecords hot
// spots, or a hot-spot record no run of the image under the daemon's
// detector could produce, is refused whole with 422 (ErrBadProfile), before
// any of its records reach the phase database, and the refusal shows as
// one profile_rejected event and one vpackd.profile_rejected count. A
// genuine detector stream is still accepted afterwards.
func TestDaemonBadProfile(t *testing.T) {
	d, rec := newTestDaemon(t, 1000)
	h := d.Handler()
	st := d.programs["m88ksim"]
	spots := captureSpots(t, d, "m88ksim")
	var nonBranch int64 // an instruction that is not a conditional branch
	for st.img.Code[nonBranch].Op.IsCondBranch() {
		nonBranch++
	}
	// Each shape corrupts a POST of two genuine records. The last two keep
	// every branch record genuine but carry more than one POST, or one
	// detector report, may hold.
	lastBranch := func(corrupt func(*hsd.BranchRecord)) func([]hsd.HotSpot) []hsd.HotSpot {
		return func(post []hsd.HotSpot) []hsd.HotSpot {
			corrupt(&post[1].Branches[len(post[1].Branches)-1])
			return post
		}
	}
	bbb := d.cfg.Detector.Sets * d.cfg.Detector.Ways
	bad := map[string]func([]hsd.HotSpot) []hsd.HotSpot{
		"taken_over_exec":  lastBranch(func(b *hsd.BranchRecord) { b.Taken = b.Exec + 1 }),
		"pc_not_a_branch":  lastBranch(func(b *hsd.BranchRecord) { b.PC = nonBranch }),
		"pc_negative":      lastBranch(func(b *hsd.BranchRecord) { b.PC = -1 }),
		"pc_past_the_code": lastBranch(func(b *hsd.BranchRecord) { b.PC = int64(len(st.img.Code)) }),
		"too_many_records": func(post []hsd.HotSpot) []hsd.HotSpot {
			for len(post) <= maxProfileRecords {
				post = append(post, post[len(post)%2])
			}
			return post
		},
		"more_branches_than_the_bbb": func(post []hsd.HotSpot) []hsd.HotSpot {
			hs := &post[1]
			for len(hs.Branches) <= bbb {
				hs.Branches = append(hs.Branches, hs.Branches[len(hs.Branches)%len(spots[1].Branches)])
			}
			return post
		},
	}
	for name, corrupt := range bad {
		t.Run(name, func(t *testing.T) {
			post := make([]hsd.HotSpot, 2)
			for i := range post {
				post[i] = spots[i]
				post[i].Branches = append([]hsd.BranchRecord(nil), spots[i].Branches...)
			}
			post = corrupt(post)
			before := rec.Export().Metrics.Counters
			w := postSpotsTrace(t, h, "m88ksim", st.hash, post, "bad-"+name)
			if w.Code != http.StatusUnprocessableEntity {
				t.Fatalf("POST: %d, want 422: %s", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), ErrBadProfile.Error()) {
				t.Errorf("refusal does not name %v: %s", ErrBadProfile, w.Body.String())
			}
			after := rec.Export().Metrics.Counters
			if got := after[obs.DaemonProfileRejected.Name] - before[obs.DaemonProfileRejected.Name]; got != 1 {
				t.Errorf("%s rose by %d, want 1", obs.DaemonProfileRejected.Name, got)
			}
			if got := after[obs.DaemonRecords.Name] - before[obs.DaemonRecords.Name]; got != 0 {
				t.Errorf("refused POST ingested %d records", got)
			}
			events, _, _ := d.events.Since(0, 0)
			var found int
			for _, e := range events {
				if e.Trace == "bad-"+name {
					found++
					if e.Kind != drift.EventRejected || e.N != int64(len(post)) || e.Detail == "" {
						t.Errorf("event %+v, want one %s with N %d and a reason", e, drift.EventRejected, len(post))
					}
				}
			}
			if found != 1 {
				t.Errorf("%d events for the refused POST, want 1", found)
			}
		})
	}
	st.mu.Lock()
	records, phases := st.records, len(st.db.Phases)
	st.mu.Unlock()
	if records != 0 || phases != 0 {
		t.Fatalf("refused POSTs reached the phase database: %d records, %d phases", records, phases)
	}

	if w := postSpots(t, h, "m88ksim", st.hash, spots); w.Code != http.StatusOK {
		t.Fatalf("genuine detector stream: %d: %s", w.Code, w.Body.String())
	}
	st.mu.Lock()
	records = st.records
	st.mu.Unlock()
	if records != int64(len(spots)) {
		t.Fatalf("genuine stream: %d records accepted, want %d", records, len(spots))
	}
}

// TestDaemonConcurrentStreams drives 1000 concurrent profile streams
// through the handler — the acceptance load for the ingest path: the
// per-shard mutex serializes accumulation, the bounded queue absorbs
// repack pressure, and no record is lost.
func TestDaemonConcurrentStreams(t *testing.T) {
	d, rec := newTestDaemon(t, 50)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	const streams = 1000
	perStream := spots[:1]
	var wg, readWG sync.WaitGroup
	codes := make([]int, streams)
	// Concurrent observability readers ride along with the ingest load:
	// the bounded event ring and the drift/timeline endpoints must stay
	// consistent (and race-clean) without ever blocking ingest.
	const readers = 8
	readerErrs := make([]error, readers)
	stop := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		readWG.Add(1)
		go func(rd int) {
			defer readWG.Done()
			var cursor int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := get(h, fmt.Sprintf("/v1/events?after=%d&limit=64", cursor))
				if w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/events: %d", w.Code)
					return
				}
				var ev eventsReply
				if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
					readerErrs[rd] = err
					return
				}
				for i := 1; i < len(ev.Events); i++ {
					if ev.Events[i].Seq != ev.Events[i-1].Seq+1 {
						readerErrs[rd] = fmt.Errorf("non-contiguous event seqs %d -> %d",
							ev.Events[i-1].Seq, ev.Events[i].Seq)
						return
					}
				}
				cursor = ev.Next
				if w := get(h, "/v1/drift/m88ksim"); w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/drift: %d", w.Code)
					return
				}
				if w := get(h, "/v1/timeline/m88ksim"); w.Code != http.StatusOK {
					readerErrs[rd] = fmt.Errorf("/v1/timeline: %d", w.Code)
					return
				}
			}
		}(rd)
	}
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			codes[s] = postSpots(t, h, "m88ksim", 0, perStream).Code
		}(s)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	for rd, err := range readerErrs {
		if err != nil {
			t.Errorf("reader %d: %v", rd, err)
		}
	}
	for s, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("stream %d: status %d", s, code)
		}
	}

	st := d.programs["m88ksim"]
	st.mu.Lock()
	records := st.records
	st.mu.Unlock()
	if records != streams {
		t.Fatalf("accepted %d records, want %d", records, streams)
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonRecords.Name]; got != streams {
		t.Fatalf("%s = %d, want %d", obs.DaemonRecords.Name, got, streams)
	}

	// The load crossed the batch threshold many times over; the daemon
	// must still converge on at least one published version.
	awaitVersion(t, h, "m88ksim")
}

func TestDaemonCloseStopsQueue(t *testing.T) {
	rec := obs.NewRecorder()
	d, err := NewDaemon(core.ScaledConfig(), []string{"m88ksim"}, 1, 1, 1, 1,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if d.enqueue(d.programs["m88ksim"]) {
		t.Fatal("enqueue succeeded after Close")
	}
	if got := rec.Export().Metrics.Counters[obs.DaemonQueueRejected.Name]; got != 0 {
		t.Fatalf("closed enqueue counted as queue rejection (%d)", got)
	}
}

// TestProgramStateVersionSelection: one selector resolves a version's
// package set and its build record together, and refusals keep the
// texts /v1/packages and /v1/provenance answer 404 with.
func TestProgramStateVersionSelection(t *testing.T) {
	st := &programState{history: []published{
		{set: []byte("v1"), prov: &core.Provenance{Trace: "rpk-1"}},
		{set: []byte("v2"), prov: &core.Provenance{Trace: "rpk-2"}},
	}}
	for _, tc := range []struct {
		sel  string
		data string
		v    int
		err  string
	}{
		{"latest", "v2", 2, ""},
		{"1", "v1", 1, ""},
		{"2", "v2", 2, ""},
		{"3", "", 0, "version 3 not yet built (have 2)"},
		{"0", "", 0, `bad version "0"`},
		{"-1", "", 0, `bad version "-1"`},
		{"x", "", 0, `bad version "x"`},
		{"1x", "", 0, `bad version "1x"`},
		{"1e2", "", 0, `bad version "1e2"`},
		{"+1", "", 0, `bad version "+1"`},
		{"01", "", 0, `bad version "01"`},
		{" 1", "", 0, `bad version " 1"`},
	} {
		pub, v, err := st.version(tc.sel)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("version(%q) err = %v, want %q", tc.sel, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("version(%q): %v", tc.sel, err)
			continue
		}
		if string(pub.set) != tc.data || v != tc.v || pub.prov.Trace != fmt.Sprintf("rpk-%d", tc.v) {
			t.Errorf("version(%q) = %q (%s), %d; want %q, %d", tc.sel, pub.set, pub.prov.Trace, v, tc.data, tc.v)
		}
	}
	empty := &programState{}
	if _, _, err := empty.version("latest"); err == nil || err.Error() != "no versions yet" {
		t.Errorf("latest on empty history: %v, want no versions yet", err)
	}
}

// postSpotsTrace is postSpots with a client-supplied trace header.
func postSpotsTrace(t *testing.T, h http.Handler, program string, hash uint64, spots []hsd.HotSpot, trace string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(profilePost{ProgramHash: hash, HotSpots: spots})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profiles/"+program, bytes.NewReader(body))
	req.Header.Set(TraceHeader, trace)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestDaemonTraceHeaderBounds: a client trace ID of up to maxTraceID
// printable ASCII bytes is kept and echoed; a longer one, or one with a
// space, is refused with 400 like an undecodable body, before any record
// is ingested or any event appended, and the daemon keeps accepting
// genuine POSTs afterwards.
func TestDaemonTraceHeaderBounds(t *testing.T) {
	d, rec := newTestDaemon(t, 1000)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")[:1]
	hash := d.programs["m88ksim"].hash

	records := func() int64 { return rec.Export().Metrics.Counters[obs.DaemonRecords.Name] }
	events := func() int {
		ev, _, _ := d.events.Since(0, 0)
		return len(ev)
	}
	for i, tr := range []string{"pb-1", "warm-m88ksim-1", strings.Repeat("t", maxTraceID)} {
		w := postSpotsTrace(t, h, "m88ksim", hash, spots, tr)
		if w.Code != http.StatusOK {
			t.Fatalf("POST with trace %q: %d: %s", tr, w.Code, w.Body.String())
		}
		if got := w.Header().Get(TraceHeader); got != tr {
			t.Fatalf("ingest echoed trace %q, want %q", got, tr)
		}
		if got := records(); got != int64(i+1) {
			t.Fatalf("%s = %d after %d accepted POSTs", obs.DaemonRecords.Name, got, i+1)
		}
	}
	for _, tr := range []string{strings.Repeat("t", maxTraceID+1), "client alpha"} {
		beforeRecords, beforeEvents := records(), events()
		w := postSpotsTrace(t, h, "m88ksim", hash, spots, tr)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("POST with trace %q: %d, want 400: %s", tr, w.Code, w.Body.String())
		}
		if got := records(); got != beforeRecords {
			t.Errorf("refused trace %q ingested %d records", tr, got-beforeRecords)
		}
		if got := events(); got != beforeEvents {
			t.Errorf("refused trace %q appended %d events", tr, got-beforeEvents)
		}
	}
	if w := postSpots(t, h, "m88ksim", hash, spots); w.Code != http.StatusOK {
		t.Fatalf("POST after the refused ones: %d: %s", w.Code, w.Body.String())
	}
	if got := records(); got != 4 {
		t.Fatalf("%s = %d after four accepted POSTs, want 4", obs.DaemonRecords.Name, got)
	}
}

// TestDaemonDriftEndpoints exercises the drift observability surface
// end to end: stream → repack → baseline → /v1/drift, /v1/timeline,
// /v1/events and the always-present vp_drift_* series on /metrics.
func TestDaemonDriftEndpoints(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// The drift and queue-wait series exist before any traffic — the
	// no-gaps contract, matched on exact TYPE lines.
	if missing := telemetry.MissingSeries(get(h, "/metrics").Body.String(), obs.DaemonSurface); len(missing) > 0 {
		t.Errorf("/metrics before traffic is missing %v", missing)
	}

	for i := 0; i < 3; i++ {
		postSpots(t, h, "m88ksim", 0, spots)
	}
	awaitVersion(t, h, "m88ksim")

	// /v1/drift reports an enabled tracker with a published baseline.
	w := get(h, "/v1/drift/m88ksim")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/drift: %d: %s", w.Code, w.Body.String())
	}
	var status drift.Status
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if !status.Enabled || status.Program != "m88ksim" {
		t.Fatalf("drift status = %+v", status)
	}
	if status.BaselineVersion < 1 {
		t.Fatalf("no baseline after publish: %+v", status)
	}
	if status.Samples != int64(3*len(spots)) {
		t.Fatalf("drift samples = %d, want %d", status.Samples, 3*len(spots))
	}

	// /v1/timeline retains closed windows.
	w = get(h, "/v1/timeline/m88ksim")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/timeline: %d", w.Code)
	}
	var tl timelineReply
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Windows) == 0 {
		t.Fatal("timeline empty after streaming")
	}
	if tl.Windows[0].Records != testDriftCfg.Window {
		t.Fatalf("window records = %d, want %d", tl.Windows[0].Records, testDriftCfg.Window)
	}

	// /v1/events carries the full chain: ingests, windows, repacks,
	// baseline publishes — and the cursor paginates.
	w = get(h, "/v1/events")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/events: %d", w.Code)
	}
	var ev eventsReply
	if err := json.Unmarshal(w.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	for _, e := range ev.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{drift.EventIngest, drift.EventWindow, drift.EventRepackStart, drift.EventRepackDone, drift.EventBaseline} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in stream (have %v)", k, kinds)
		}
	}
	w = get(h, fmt.Sprintf("/v1/events?after=%d&limit=2", ev.Events[0].Seq))
	var page eventsReply
	if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Events[0].Seq != ev.Events[0].Seq+1 {
		t.Fatalf("cursor page = %+v", page.Events)
	}
	if w := get(h, "/v1/events?after=x"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cursor accepted: %d", w.Code)
	}

	// Unknown programs 404 on every new endpoint.
	for _, path := range []string{"/v1/drift/nope", "/v1/timeline/nope", "/v1/provenance/nope/latest"} {
		if w := get(h, path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, w.Code)
		}
	}

	// After traffic the queue-wait histogram has samples and the
	// per-program drift series exist.
	body := get(h, "/metrics").Body.String()
	if missing := telemetry.MissingSeries(body, obs.DaemonSurface); len(missing) > 0 {
		t.Errorf("/metrics after traffic is missing %v", missing)
	}
	if strings.Contains(body, telemetry.MetricName(obs.DaemonQueueWait.Name)+"_count 0\n") {
		t.Error("queue-wait histogram has no samples after a repack")
	}
	if series := "# TYPE " + telemetry.MetricName(obs.DriftScore.For("m88ksim")) + " gauge\n"; !strings.Contains(body, series) {
		t.Errorf("per-program drift score series missing: want %q", series)
	}
}

// TestDaemonProvenanceChain checks that a published version links back
// to the ingest traces that fed it and the artifact hashes it produced.
func TestDaemonProvenanceChain(t *testing.T) {
	d, _ := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	// Client-scoped traces: the daemon must chain these, not invent IDs.
	traces := []string{"client-alpha", "client-beta", "client-gamma"}
	for _, tr := range traces {
		w := postSpotsTrace(t, h, "m88ksim", 0, spots, tr)
		if w.Code != http.StatusOK {
			t.Fatalf("POST: %d", w.Code)
		}
		if got := w.Header().Get(TraceHeader); got != tr {
			t.Fatalf("ingest echoed trace %q, want %q", got, tr)
		}
		var ack profileAck
		if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Trace != tr {
			t.Fatalf("ack trace %q, want %q", ack.Trace, tr)
		}
	}
	pkg := awaitVersion(t, h, "m88ksim")

	w := get(h, "/v1/provenance/m88ksim/latest")
	if w.Code != http.StatusOK {
		t.Fatalf("GET provenance: %d: %s", w.Code, w.Body.String())
	}
	prov, err := core.DecodeProvenance(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Program != "m88ksim" || prov.Version < 1 {
		t.Fatalf("provenance = %+v", prov)
	}
	if !strings.HasPrefix(prov.Trace, "rpk-") {
		t.Fatalf("repack trace %q", prov.Trace)
	}
	got := make(map[string]bool)
	for _, ing := range prov.Ingests {
		got[ing.Trace] = true
		if ing.Records != len(spots) {
			t.Fatalf("ingest ref %+v, want %d records", ing, len(spots))
		}
	}
	if !got[traces[0]] {
		t.Fatalf("version 1 provenance lost ingest %q: %+v", traces[0], prov.Ingests)
	}
	if prov.ProgramHash != d.programs["m88ksim"].hash {
		t.Fatalf("provenance program hash %016x, shard %016x", prov.ProgramHash, d.programs["m88ksim"].hash)
	}
	if prov.ProfileHash == 0 || prov.RegionHash == 0 || prov.PackageHash == 0 {
		t.Fatalf("artifact hashes missing: %+v", prov)
	}
	if prov.QueueWaitUS < 0 || prov.BuildUS <= 0 {
		t.Fatalf("timings: %+v", prov)
	}
	if len(prov.Spans) < 2 {
		t.Fatalf("stage spans missing: %+v", prov.Spans)
	}

	// The artifact chain is consistent with what's actually served: the
	// published PackageSet's content hash matches the provenance record.
	set, err := core.DecodePackageSet(bytes.NewReader(pkg.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	setHash, err := set.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if setHash != prov.PackageHash {
		t.Fatalf("served set hash %016x, provenance %016x", setHash, prov.PackageHash)
	}

	// The package response advertises its provenance in headers.
	if got := pkg.Header().Get(TraceHeader); got != prov.Trace {
		t.Fatalf("package trace header %q, provenance trace %q", got, prov.Trace)
	}
	if pkg.Header().Get("Vpackd-Drift-Score") == "" {
		t.Fatal("package response missing drift-score header")
	}
}

// TestDaemonDriftScoreRises is the drift layer's acceptance check at
// unit scale: a phase shift in the stream demonstrably moves the score.
// The daemon's recorder keeps no events for it: drift lives in the
// vp_drift_* metrics and the /v1/events ring, so /metrics and /trace
// scrapes do not grow with the stream.
func TestDaemonDriftScoreRises(t *testing.T) {
	if ev := streamPhaseShift(t).Export().Events; len(ev) != 0 {
		t.Fatalf("daemon recorder holds %d events after the phase shift, want none: %+v", len(ev), ev[0])
	}
}

// streamPhaseShift streams a stable phase, publishes a baseline, then
// shifts the phase, asserting the drift score rises; it returns the
// daemon's recorder.
func streamPhaseShift(t *testing.T) *obs.Recorder {
	t.Helper()
	d, rec := newTestDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")

	for i := 0; i < 3; i++ {
		postSpots(t, h, "m88ksim", 0, spots)
	}
	awaitVersion(t, h, "m88ksim")

	var before drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// Keep the stream identical: the score stays low.
	postSpots(t, h, "m88ksim", 0, spots)
	var stable drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &stable); err != nil {
		t.Fatal(err)
	}
	if stable.Score.Composite > 0.3 {
		t.Fatalf("stable stream scored %.3f", stable.Score.Composite)
	}

	// Shift the phase: the composite must rise well past the stable level
	// and the peak must record it.
	postSpots(t, h, "m88ksim", 0, drift.ShiftHotSpots(spots))
	var after drift.Status
	if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Score.Composite <= stable.Score.Composite+0.2 {
		t.Fatalf("shift did not move the score: stable %.3f, shifted %.3f",
			stable.Score.Composite, after.Score.Composite)
	}
	if after.Score.Peak < after.Score.Composite {
		t.Fatalf("peak %.3f below composite %.3f", after.Score.Peak, after.Score.Composite)
	}
	if after.Score.BiasFlips == 0 {
		t.Fatal("flipped stream reported no bias flips")
	}
	return rec
}

// TestEveryEmittedMetricDeclared checks every counter, gauge and
// histogram the pipeline (the committed golden trace) and the daemon
// (after a drift phase shift) record against the obs declaration table,
// kind included, so an undeclared metric fails here instead of silently
// missing from dashboards. Per-program and span_us.<span> series resolve
// to their declared family.
func TestEveryEmittedMetricDeclared(t *testing.T) {
	f, err := os.Open("../../testdata/trace_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	for source, tr := range map[string]*obs.Trace{
		"golden": golden,
		"daemon": streamPhaseShift(t).Export(),
	} {
		n := 0
		check := func(name string, kind obs.MetricKind) {
			n++
			if m, ok := obs.LookupMetric(name); !ok {
				t.Errorf("%s: %s %q is not declared in obs", source, kind, name)
			} else if m.Kind != kind {
				t.Errorf("%s: %q recorded as a %s, declared as %s %q", source, name, kind, m.Kind, m.Name)
			}
		}
		for name := range tr.Metrics.Counters {
			check(name, obs.Counter)
		}
		for name := range tr.Metrics.Gauges {
			check(name, obs.Gauge)
		}
		for name := range tr.Metrics.Histograms {
			check(name, obs.Histogram)
		}
		if n == 0 {
			t.Errorf("%s trace recorded no metrics", source)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
	got := splitList("a, b,,c ")
	want := []string{"a", "b", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("splitList = %v, want %v", got, want)
	}
}

// TestDaemonEquivGate runs the daemon with translation validation gating
// every repack: the published version must carry per-package certificates
// proving the build, the vp_equiv_* series must be live on /metrics, and
// no rejection may fire on a clean build. (The blocking path itself —
// a refuted proof leaves st.lastErr set and never appends the version —
// shares the repack error machinery exercised by TestDaemonStaleProfile;
// the refutation corpus lives in internal/equiv.)
func TestDaemonEquivGate(t *testing.T) {
	d, rec := newEquivDaemon(t, 3)
	h := d.Handler()
	spots := captureSpots(t, d, "m88ksim")
	hash := d.programs["m88ksim"].hash
	for i := 0; i < 3; i++ {
		if w := postSpots(t, h, "m88ksim", hash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}
	w := awaitVersion(t, h, "m88ksim")
	set, err := core.DecodePackageSet(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Equiv) != len(set.Packages) {
		t.Fatalf("published version has %d certificates for %d packages", len(set.Equiv), len(set.Packages))
	}
	for _, c := range set.Equiv {
		if !c.Equivalent {
			t.Fatalf("published version carries a non-equivalent certificate: %s", c.Verdict())
		}
	}

	counters := rec.Export().Metrics.Counters
	if counters[obs.EquivPackages.Name] == 0 {
		t.Fatal("equiv-gated repack recorded no proved packages")
	}
	if counters[obs.EquivViolations.Name] != 0 {
		t.Fatalf("clean repack recorded %d equiv violations", counters[obs.EquivViolations.Name])
	}
	if counters[obs.DaemonEquivRejected.Name] != 0 {
		t.Fatalf("clean repack recorded %d equiv rejections", counters[obs.DaemonEquivRejected.Name])
	}

	// The equiv series are always-on for the serving tier: present on
	// /metrics even before any violation.
	body := get(h, "/metrics").Body.String()
	for _, series := range []string{
		telemetry.MetricName(obs.EquivPackages.Name),
		telemetry.MetricName(obs.EquivViolations.Name),
		telemetry.MetricName(obs.DaemonEquivRejected.Name),
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

// TestDaemonRepackPanicIsolated injects a panicking build: the repack
// must fail as a version (a repack_done event naming the panic, the
// vpackd.repack_panics counter) while the daemon keeps serving the last
// good version and repacks the program again on its next batch.
func TestDaemonRepackPanicIsolated(t *testing.T) {
	d, rec := newEquivDaemon(t, 3)
	h := d.Handler()
	st := d.programs["m88ksim"]
	spots := captureSpots(t, d, "m88ksim")
	post := func() {
		t.Helper()
		if w := postSpots(t, h, "m88ksim", st.hash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}
	post()
	awaitCount(t, rec, obs.DaemonRepacks.Name, 1)
	good, n, err := st.version("latest")
	if err != nil || n != 1 {
		t.Fatalf("first repack published no version: %v (last error %q)", err, st.lastErr)
	}

	// The next build proves every package, then panics. The seam is
	// swapped between repacks: the enqueue that starts the next one
	// orders this write before the worker's read.
	d.build = func(st *programState, pa *core.ProfileArtifact, prov *core.Provenance) ([]byte, error) {
		if _, err := d.buildVersion(st, pa, prov); err != nil {
			t.Errorf("build before the injected panic: %v", err)
		}
		panic("injected build failure")
	}
	post()
	awaitCount(t, rec, obs.DaemonRepackPanics.Name, 1)
	latest, n, err := st.version("latest")
	if err != nil || n != 1 || !bytes.Equal(latest.set, good.set) {
		t.Fatalf("after the panic latest is version %d (%v), want the last good version 1", n, err)
	}
	if !strings.Contains(st.lastErr, "injected build failure") {
		t.Errorf("lastErr %q does not name the panic", st.lastErr)
	}
	events, _, _ := d.events.Since(0, 0)
	found := false
	for _, e := range events {
		if e.Kind == drift.EventRepackDone && strings.Contains(e.Detail, "injected build failure") {
			found = true
		}
	}
	if !found {
		t.Errorf("no repack_done event names the panic: %+v", events)
	}

	// The shard is not left pending: its next batch repacks again.
	d.build = d.buildVersion
	post()
	awaitCount(t, rec, obs.DaemonRepacks.Name, 3)
	if _, n, err := st.version("latest"); err != nil || n != 2 {
		t.Fatalf("repack after the panic published version %d (%v, last error %q), want 2", n, err, st.lastErr)
	}
}
