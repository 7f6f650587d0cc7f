package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// serveBody answers /metrics with body and returns the server URL.
func serveBody(t *testing.T, body string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// dropFamily removes every line of one family (its HELP, TYPE and sample
// lines) from a /metrics body, leaving families that merely share its
// name as a prefix intact.
func dropFamily(body, family string) string {
	var out []string
	for _, line := range strings.SplitAfter(body, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) >= 3 && fields[0] == "#" && fields[2] == family:
		case len(fields) >= 1 && fields[0] == family:
		default:
			out = append(out, line)
		}
	}
	return strings.Join(out, "")
}

// TestCheckMetricsExactFamilies pins checkMetrics to whole families: a
// series whose name only starts with a required family's name must not
// stand in for it, and a family rendered with the wrong kind is missing.
func TestCheckMetricsExactFamilies(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Count(obs.DriftSamples.For("m88ksim"), 4)
	rec.Gauge(obs.DriftScore.For("m88ksim"), 0.5)
	var buf bytes.Buffer
	telemetry.WriteMetrics(&buf, rec.Export(), obs.DaemonSurface)
	full := buf.String()
	if err := checkMetrics(http.DefaultClient, serveBody(t, full)); err != nil {
		t.Fatalf("complete daemon body rejected: %v", err)
	}

	score := telemetry.MetricName(obs.DriftScore.Name)
	samples := telemetry.MetricName(obs.DriftSamples.Name)
	for _, tc := range []struct {
		name, body, want string
	}{
		// vp_drift_score_pct and vp_drift_score_m88ksim remain.
		{"score gauge", dropFamily(full, score), score},
		// vp_drift_samples_m88ksim remains.
		{"samples counter", dropFamily(full, samples), samples},
		{"wrong kind", strings.Replace(full, "# TYPE "+score+" gauge\n", "# TYPE "+score+" counter\n", 1), score},
	} {
		err := checkMetrics(http.DefaultClient, serveBody(t, tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want+" ") {
			t.Errorf("%s: checkMetrics = %v, want it to name %s", tc.name, err, tc.want)
		}
	}
}

// driftStub is a daemon stand-in for -phaseshift: GET /v1/drift/{p}
// reports the given tracker sizing with a peak past the rise threshold,
// and POST /v1/profiles/{p} counts the hot spots it receives.
func driftStub(t *testing.T, enabled bool, window int) (string, map[string]int) {
	t.Helper()
	var mu sync.Mutex
	posted := make(map[string]int)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/drift/{program}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(drift.Status{
			Program:       r.PathValue("program"),
			Enabled:       enabled,
			WindowRecords: window,
			RingWindows:   8,
			Score:         drift.Score{Peak: 0.9},
		})
	})
	mux.HandleFunc("POST /v1/profiles/{program}", func(w http.ResponseWriter, r *http.Request) {
		var body wirePost
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		posted[r.PathValue("program")] += len(body.HotSpots)
		mu.Unlock()
		w.Write([]byte("{}"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL, posted
}

// TestPhaseShiftBurstFromDaemon: the shifted burst is eight of the
// daemon's reported drift windows per program, and a daemon that tracks
// no drift is refused before any shifted record is posted.
func TestPhaseShiftBurstFromDaemon(t *testing.T) {
	progs := []wireProgram{{Program: "gzip", ProgramHash: 1}, {Program: "perl", ProgramHash: 2}}
	spot := hsd.HotSpot{Branches: []hsd.BranchRecord{
		{PC: 10, Exec: 100, Taken: 90}, {PC: 20, Exec: 100, Taken: 10}, {PC: 30, Exec: 50, Taken: 25},
	}}
	captured := map[string][]hsd.HotSpot{"gzip": {spot, spot}, "perl": {spot}}
	logger := slog.New(slog.DiscardHandler)

	url, posted := driftStub(t, true, 3)
	peak, err := runPhaseShift(http.DefaultClient, url, progs, captured, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 0.9 {
		t.Errorf("peak = %v, want the daemon's 0.9", peak)
	}
	for _, p := range progs {
		if posted[p.Program] != 24 {
			t.Errorf("%s: posted %d shifted records, want 24 (8 windows of 3)", p.Program, posted[p.Program])
		}
	}

	url, posted = driftStub(t, false, 3)
	if _, err := runPhaseShift(http.DefaultClient, url, progs, captured, 4, logger); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("runPhaseShift against a daemon without drift tracking = %v, want a refusal", err)
	}
	if len(posted) != 0 {
		t.Errorf("posted %v to a daemon without drift tracking, want nothing", posted)
	}
}
