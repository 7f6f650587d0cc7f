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

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
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

// daemonStub is a vpackd stand-in for -phaseshift. It advertises progs
// on /v1/programs, reports the given drift tracker sizing with a peak
// past the rise threshold on GET /v1/drift/{p}, counts the hot spots
// POSTed to /v1/profiles/{p}, and publishes version 1 of a program (a
// package set with no packages) on its first ingested record.
type daemonStub struct {
	url       string
	mu        sync.Mutex
	posted    map[string]int
	published map[string]bool
}

func newDaemonStub(t *testing.T, progs []wireProgram, enabled bool, window int) *daemonStub {
	t.Helper()
	d := &daemonStub{posted: map[string]int{}, published: map[string]bool{}}
	hashes := map[string]uint64{}
	for _, p := range progs {
		hashes[p.Program] = p.ProgramHash
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/programs", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(progs)
	})
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
		d.mu.Lock()
		d.posted[r.PathValue("program")] += len(body.HotSpots)
		d.published[r.PathValue("program")] = true
		d.mu.Unlock()
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("GET /v1/packages/{program}/latest", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("program")
		d.mu.Lock()
		published := d.published[name]
		d.mu.Unlock()
		if !published {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Vpackd-Version", "1")
		json.NewEncoder(w).Encode(&core.PackageSet{Schema: core.PackageSetSchema, Program: name, ProgramHash: hashes[name]})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	d.url = ts.URL
	return d
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

	d := newDaemonStub(t, progs, true, 3)
	windows, err := driftWindows(http.DefaultClient, d.url, progs)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := runPhaseShift(http.DefaultClient, d.url, progs, captured, windows, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 0.9 {
		t.Errorf("peak = %v, want the daemon's 0.9", peak)
	}
	for _, p := range progs {
		if d.posted[p.Program] != 24 {
			t.Errorf("%s: posted %d shifted records, want 24 (8 windows of 3)", p.Program, d.posted[p.Program])
		}
	}

	d = newDaemonStub(t, progs, false, 3)
	if _, err := driftWindows(http.DefaultClient, d.url, progs); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("driftWindows against a daemon without drift tracking = %v, want a refusal", err)
	}
	if len(d.posted) != 0 {
		t.Errorf("posted %v to a daemon without drift tracking, want nothing", d.posted)
	}
}

// TestLoadgenRefusesDriftlessDaemon: vpbench -daemon URL -phaseshift
// against a daemon with drift tracking off fails before it captures or
// posts anything, so the refused run leaves the daemon without records
// and without a published version. The stub advertises m88ksim's real
// image, so a loadgen that checked later would capture and stream.
func TestLoadgenRefusesDriftlessDaemon(t *testing.T) {
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	progs := []wireProgram{{Program: "m88ksim", Input: "A", Scale: 1, ProgramHash: core.ImageHash(img)}}
	d := newDaemonStub(t, progs, false, 3)
	err = loadgen(d.url, 2, 20, "", slog.New(slog.DiscardHandler), true)
	if err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("loadgen -phaseshift against a daemon without drift tracking = %v, want a refusal", err)
	}
	if len(d.posted) != 0 || len(d.published) != 0 {
		t.Errorf("refused run ingested %v and published %v, want nothing", d.posted, d.published)
	}
}
