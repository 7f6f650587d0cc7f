package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDriftViewRows: the drift view finds every program from its
// per-program drift series — one that has closed windows and one that
// has only been baselined — and no other metric adds a row.
func TestDriftViewRows(t *testing.T) {
	tr := &obs.Trace{Metrics: obs.Metrics{
		Counters: map[string]int64{
			obs.DriftSamples.Name:           40,
			obs.DriftSamples.For("gzip"):    40,
			obs.DriftWindows.For("gzip"):    10,
			obs.DaemonRecords.For("vortex"): 25,
		},
		Gauges: map[string]float64{
			obs.DriftScore.Name:                   0.75,
			obs.DriftScore.For("gzip"):            0.75,
			obs.DriftPeak.For("gzip"):             0.9,
			obs.DriftHotSetDivergence.For("gzip"): 0.5,
			obs.DriftBiasFlips.For("gzip"):        3,
			obs.DriftFilterCrossings.For("gzip"):  0.25,
			obs.DriftBaselineVersion.For("gzip"):  2,
			obs.DriftBaselineVersion.For("perl"):  1,
			obs.DaemonQueueDepth.Name:             4,
		},
		Histograms: map[string]obs.HistogramRecord{
			obs.DriftScorePct.Name:        {Count: 10, Sum: 750},
			obs.DriftScorePct.For("gzip"): {Count: 10, Sum: 750},
		},
	}}
	var out bytes.Buffer
	driftView(&out, tr)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	want := []string{
		"program           samples  windows   score    peak  diverg  flips   cross  baseline",
		"gzip                   40       10   0.750   0.900   0.500      3   0.250         2",
		"perl                    0        0   0.000   0.000   0.000      0   0.000         1",
		"",
		"score histogram (%): 10 observations, mean 75.0",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("drift view:\n%s\nwant:\n%s", out.String(), strings.Join(want, "\n"))
	}
}

// TestDriftViewNoSeries: a trace without per-program drift series (a
// vpbench trace, or a daemon that tracked nothing) says so.
func TestDriftViewNoSeries(t *testing.T) {
	tr := &obs.Trace{Metrics: obs.Metrics{
		Counters: map[string]int64{"pack.packages": 3, obs.DriftSamples.Name: 0},
		Gauges:   map[string]float64{obs.DriftScore.Name: 0},
	}}
	var out bytes.Buffer
	driftView(&out, tr)
	if got := out.String(); !strings.HasPrefix(got, "no drift series in trace") {
		t.Fatalf("drift view = %q, want the no-series line", got)
	}
}
