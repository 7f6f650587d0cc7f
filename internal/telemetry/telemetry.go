// Package telemetry is the serving tier over internal/obs: a stdlib-only
// HTTP server that exposes a live Recorder as Prometheus text-format
// /metrics (counters, gauges, histogram buckets), a /trace JSON snapshot,
// /healthz and /readyz probes and the /debug/pprof handlers, plus the
// structured-logging setup (slog text/json/off) shared by the CLIs.
//
// The server holds no state of its own beyond readiness: every endpoint
// renders a fresh snapshot of the Source at request time, so scraping a
// long vpbench -serve run observes the suite as it progresses.
package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ReadHeaderTimeout bounds how long a client may take to send request
// headers, on this server and on vpackd's. There is deliberately no idle
// or write timeout: keep-alive clients are not expected to retry a POST
// on a closed connection, and /debug/pprof/profile streams for 30 s.
const ReadHeaderTimeout = 10 * time.Second

// Source supplies trace snapshots; *obs.Recorder satisfies it.
type Source interface {
	Export() *obs.Trace
}

// Server serves a Source over HTTP.
type Server struct {
	src   Source
	ready atomic.Bool
	mux   *http.ServeMux
	http  *http.Server
	// extra counter/gauge/histogram names /metrics always renders (see
	// AlwaysCounters, AlwaysGauges, AlwaysHistograms).
	extra      []string
	extraGauge []string
	extraHist  []string
}

// NewServer builds a server over src. It starts not-ready; call SetReady
// once the instrumented work is actually running.
func NewServer(src Source) *Server {
	s := &Server{src: src, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: ReadHeaderTimeout}
	return s
}

// Handler returns the server's route table, for mounting under httptest
// or an existing mux.
func (s *Server) Handler() http.Handler { return s.mux }

// AlwaysCounters registers additional counter names that /metrics renders
// even when the snapshot has no sample yet (value 0) — the same
// no-series-gaps contract the engine counters get by default. Call before
// Listen; names are not synchronized after serving starts.
func (s *Server) AlwaysCounters(names ...string) {
	s.extra = append(s.extra, names...)
}

// AlwaysGauges registers gauge names that /metrics renders even before the
// instrumented code first sets them (value 0). Call before Listen.
func (s *Server) AlwaysGauges(names ...string) {
	s.extraGauge = append(s.extraGauge, names...)
}

// AlwaysHistograms registers histogram names that /metrics renders even
// before the first observation (all-zero buckets, zero sum and count), so
// latency quantiles have no series gap to their first sample. Call before
// Listen.
func (s *Server) AlwaysHistograms(names ...string) {
	s.extraHist = append(s.extraHist, names...)
}

// SetReady flips the /readyz state.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Listen binds addr (":0" picks a free port) and starts serving in a new
// goroutine, returning the bound address. Use Close to stop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Close immediately stops a Listen-ed server.
func (s *Server) Close() error { return s.http.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetricsAlways(w, s.src.Export(), Always{
		Counters:   s.extra,
		Gauges:     s.extraGauge,
		Histograms: s.extraHist,
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.src.Export().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

// MetricName sanitizes a flat obs metric name (dots, colons, slashes)
// into a legal Prometheus metric name with the vp_ namespace prefix.
func MetricName(name string) string {
	var sb strings.Builder
	sb.WriteString("vp_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// WriteMetrics renders a trace snapshot in Prometheus text exposition
// format (version 0.0.4): counters, gauges, and histograms with
// cumulative le-labeled buckets over the shared log-spaced layout. Output
// is sorted by metric name, so identical traces render identical bytes —
// which is what makes /metrics diffable and, after Normalize, goldenable.
func WriteMetrics(w io.Writer, t *obs.Trace) {
	WriteMetricsExtra(w, t)
}

// WriteMetricsExtra is WriteMetrics with additional always-exposed
// counter names (rendered as 0 when the snapshot has none) — the daemon
// uses it to keep its queue/repack series gap-free from the first scrape.
func WriteMetricsExtra(w io.Writer, t *obs.Trace, extra ...string) {
	WriteMetricsAlways(w, t, Always{Counters: extra})
}

// Always names metric series /metrics renders even when the snapshot has
// no sample for them: counters as 0, gauges as 0, histograms with all-zero
// buckets. The daemon registers its queue/repack and drift series here so
// every series exists from the first scrape.
type Always struct {
	Counters   []string
	Gauges     []string
	Histograms []string
}

// WriteMetricsAlways is WriteMetrics with per-kind always-exposed series.
func WriteMetricsAlways(w io.Writer, t *obs.Trace, always Always) {
	fmtFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	counters := make(map[string]int64, len(t.Metrics.Counters)+2)
	for k, v := range t.Metrics.Counters {
		counters[k] = v
	}
	// The drop counters and the execution-engine counters are part of the
	// serving contract: always exposed, zero when nothing happened, so
	// alerts and dashboards can rate() them without series gaps.
	wellKnown := append([]string{obs.DroppedSpansCounter, obs.DroppedEventsCounter},
		obs.EngineCounters()...)
	wellKnown = append(wellKnown, always.Counters...)
	for _, k := range wellKnown {
		if _, ok := counters[k]; !ok {
			counters[k] = 0
		}
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := MetricName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, counters[k])
	}

	gauges := make(map[string]float64, len(t.Metrics.Gauges)+len(always.Gauges))
	for k, v := range t.Metrics.Gauges {
		gauges[k] = v
	}
	for _, k := range always.Gauges {
		if _, ok := gauges[k]; !ok {
			gauges[k] = 0
		}
	}
	names = names[:0]
	for k := range gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := MetricName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m, m, fmtFloat(gauges[k]))
	}

	bounds := obs.HistogramBounds()
	hists := make(map[string]obs.HistogramRecord, len(t.Metrics.Histograms)+len(always.Histograms))
	for k, h := range t.Metrics.Histograms {
		hists[k] = h
	}
	for _, k := range always.Histograms {
		if _, ok := hists[k]; !ok {
			hists[k] = obs.HistogramRecord{}
		}
	}
	names = names[:0]
	for k := range hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := hists[k]
		m := MetricName(k)
		fmt.Fprintf(w, "# TYPE %s histogram\n", m)
		var cum uint64
		for i, b := range bounds {
			if i < len(h.Buckets) {
				cum += h.Buckets[i]
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m, fmtFloat(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(w, "%s_sum %s\n", m, fmtFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", m, h.Count)
	}
}

// LogModes documents the shared -log flag values.
const LogModes = "text|json|off"

// NewLogger builds the CLI logger for one of the LogModes, writing to w.
// With a non-nil recorder the handler is wrapped in obs.NewSlogHandler,
// so records logged while a span is open carry span/stage attributes.
func NewLogger(mode string, w io.Writer, rec *obs.Recorder) (*slog.Logger, error) {
	var h slog.Handler
	switch mode {
	case "off":
		return slog.New(slog.DiscardHandler), nil
	case "text", "":
		h = slog.NewTextHandler(w, nil)
	case "json":
		h = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("telemetry: unknown log mode %q (want %s)", mode, LogModes)
	}
	if rec != nil {
		h = obs.NewSlogHandler(h, rec)
	}
	return slog.New(h), nil
}
