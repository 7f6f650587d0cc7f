package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
