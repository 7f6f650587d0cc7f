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
	src     Source
	surface obs.Surface
	ready   atomic.Bool
	mux     *http.ServeMux
	http    *http.Server
}

// NewServer builds a server over src whose /metrics always exposes the
// declared families of surface. It starts not-ready; call SetReady once
// the instrumented work is actually running.
func NewServer(src Source, surface obs.Surface) *Server {
	s := &Server{src: src, surface: surface, mux: http.NewServeMux()}
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
	WriteMetrics(w, s.src.Export(), s.surface)
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
// cumulative le-labeled buckets over the shared log-spaced layout. Every
// family that surface always exposes renders even without a sample (zero
// values, all-zero buckets), and every declared family carries its
// # HELP line. Output is sorted by metric name, so identical traces
// render identical bytes — which is what makes /metrics diffable and,
// after Normalize, goldenable.
func WriteMetrics(w io.Writer, t *obs.Trace, surface obs.Surface) {
	fmtFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	header := func(name string, kind obs.MetricKind) string {
		m := MetricName(name)
		if d, ok := obs.LookupMetric(name); ok {
			fmt.Fprintf(w, "# HELP %s %s\n", m, d.Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m, kind)
		return m
	}

	names, counters := withAlways(t.Metrics.Counters, obs.Counter, surface)
	for _, k := range names {
		m := header(k, obs.Counter)
		fmt.Fprintf(w, "%s %d\n", m, counters[k])
	}

	names, gauges := withAlways(t.Metrics.Gauges, obs.Gauge, surface)
	for _, k := range names {
		m := header(k, obs.Gauge)
		fmt.Fprintf(w, "%s %s\n", m, fmtFloat(gauges[k]))
	}

	bounds := obs.HistogramBounds()
	names, hists := withAlways(t.Metrics.Histograms, obs.Histogram, surface)
	for _, k := range names {
		h := hists[k]
		m := header(k, obs.Histogram)
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

// withAlways returns a snapshot's series of one kind plus a zero value for
// every family of that kind that surface always exposes, with the names
// sorted.
func withAlways[V any](got map[string]V, kind obs.MetricKind, surface obs.Surface) ([]string, map[string]V) {
	all := make(map[string]V, len(got))
	for k, v := range got {
		all[k] = v
	}
	for _, m := range obs.Declared() {
		if _, ok := all[m.Name]; !ok && m.Kind == kind && m.AlwaysOn(surface) {
			var zero V
			all[m.Name] = zero
		}
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, all
}

// MissingSeries checks a /metrics body against the serving contract: it
// names every family that surface always exposes and the body does not
// declare with an exact "# TYPE <name> <kind>" line of the declared kind.
// Matching whole TYPE lines keeps a family from being "found" inside a
// longer name (vp_drift_score inside vp_drift_score_pct).
func MissingSeries(body string, surface obs.Surface) []string {
	types := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, ok := strings.Cut(rest, " "); ok {
				types[name] = kind
			}
		}
	}
	var missing []string
	for _, m := range obs.Declared() {
		if name := MetricName(m.Name); m.AlwaysOn(surface) && types[name] != m.Kind.String() {
			missing = append(missing, name+" "+m.Kind.String())
		}
	}
	return missing
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
