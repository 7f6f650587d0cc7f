package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/report"
)

func sampleRecorder() *obs.Recorder {
	rec := obs.NewRecorder()
	sp := rec.StartSpan(obs.StagePipeline)
	rec.Count("profile.insts", 12345)
	rec.Count("pack.packages", 3)
	rec.Gauge("eval.speedup", 1.07)
	rec.Observe("region.hot_blocks", 7)
	rec.Observe("region.hot_blocks", 130)
	rec.Observe("eval.cycles", 50000)
	sp.End()
	return rec
}

var (
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// parsePromText is a hand-rolled validator for the Prometheus text
// exposition format as WriteMetrics emits it: every sample line must
// parse, every metric must be preceded by its # TYPE line (and a declared
// one by its # HELP line), histogram buckets must be cumulative and end
// at _count == +Inf.
func parsePromText(t *testing.T, text string) map[string]string {
	t.Helper()
	types := make(map[string]string)  // metric family -> type
	helps := make(map[string]string)  // metric family -> help text
	values := make(map[string]string) // full sample (with labels) -> value

	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && types[f] == "histogram" {
				return f
			}
		}
		return name
	}

	var lastCum uint64
	var curHist string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if !nameRe.MatchString(name) || help == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			if _, dup := helps[name]; dup {
				t.Fatalf("duplicate HELP for %s", name)
			}
			helps[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !nameRe.MatchString(parts[2]) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			for _, m := range obs.Declared() {
				if MetricName(m.Name) == parts[2] && helps[parts[2]] != m.Help {
					t.Fatalf("%s: HELP %q, want the declared %q", parts[2], helps[parts[2]], m.Help)
				}
			}
			if parts[3] == "histogram" {
				curHist, lastCum = parts[2], 0
			}
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, val := m[1], m[2], m[3]
		fam := family(name)
		if _, ok := types[fam]; !ok {
			t.Fatalf("sample %q before its TYPE line", line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		if fam == curHist && strings.HasSuffix(name, "_bucket") {
			cum, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("non-integer bucket in %q", line)
			}
			if cum < lastCum {
				t.Fatalf("bucket counts not cumulative at %q (%d < %d)", line, cum, lastCum)
			}
			lastCum = cum
			if labels == "" || !strings.Contains(labels, `le="`) {
				t.Fatalf("histogram bucket without le label: %q", line)
			}
		}
		values[name+labels] = val
	}
	return values
}

func TestWriteMetricsValidPrometheusText(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, sampleRecorder().Export(), obs.PipelineSurface)
	values := parsePromText(t, buf.String())

	if values["vp_profile_insts"] != "12345" {
		t.Errorf("counter sample = %q, want 12345", values["vp_profile_insts"])
	}
	if values["vp_eval_speedup"] != "1.07" {
		t.Errorf("gauge sample = %q, want 1.07", values["vp_eval_speedup"])
	}
	// The surface's families are exposed before their first sample.
	if values["vp_store_hits"] != "0" || values["vp_equiv_packages"] != "0" {
		t.Errorf("unsampled surface counters missing or nonzero: %v %v",
			values["vp_store_hits"], values["vp_equiv_packages"])
	}
	// Histogram contract: +Inf bucket equals _count, sum matches.
	if values[`vp_region_hot_blocks_bucket{le="+Inf"}`] != "2" ||
		values["vp_region_hot_blocks_count"] != "2" {
		t.Errorf("hot_blocks +Inf/count = %v/%v, want 2/2",
			values[`vp_region_hot_blocks_bucket{le="+Inf"}`], values["vp_region_hot_blocks_count"])
	}
	if values["vp_region_hot_blocks_sum"] != "137" {
		t.Errorf("hot_blocks sum = %q, want 137", values["vp_region_hot_blocks_sum"])
	}
	// 7 <= 2^3 and 130 <= 2^8: le="8" holds one, le="128" still one, le="256" both.
	if values[`vp_region_hot_blocks_bucket{le="8"}`] != "1" ||
		values[`vp_region_hot_blocks_bucket{le="128"}`] != "1" ||
		values[`vp_region_hot_blocks_bucket{le="256"}`] != "2" {
		t.Errorf("cumulative buckets wrong: le8=%v le128=%v le256=%v",
			values[`vp_region_hot_blocks_bucket{le="8"}`],
			values[`vp_region_hot_blocks_bucket{le="128"}`],
			values[`vp_region_hot_blocks_bucket{le="256"}`])
	}
}

func TestWriteMetricsDeterministicAfterNormalize(t *testing.T) {
	render := func() []byte {
		tr := sampleRecorder().Export().Normalize()
		var buf bytes.Buffer
		WriteMetrics(&buf, tr, obs.PipelineSurface)
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("two normalized renders differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte("# TYPE vp_span_us_pipeline histogram")) {
		t.Errorf("span wall-time histogram family missing from render:\n%s", a)
	}
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"profile.insts":     "vp_profile_insts",
		"span_us.input:a/b": "vp_span_us_input_a_b",
		"already_legal":     "vp_already_legal",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	rec := sampleRecorder()
	srv := NewServer(rec, obs.PipelineSurface)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", code)
	}
	srv.SetReady(true)
	if code, _, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz after SetReady = %d, want 200", code)
	}
	srv.SetReady(false)
	if code, _, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", code)
	}

	code, body, hdr := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	parsePromText(t, body)

	code, body, hdr = get("/trace")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/trace = %d, content type %q", code, hdr.Get("Content-Type"))
	}
	var tr obs.Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil || tr.Schema != obs.TraceSchema {
		t.Errorf("/trace body invalid (%v), schema %q", err, tr.Schema)
	}

	if code, body, _ := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestListenAndClose(t *testing.T) {
	srv := NewServer(sampleRecorder(), obs.PipelineSurface)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET over Listen-ed server: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after Close")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger("json", &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hello", "k", 1)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil || rec["msg"] != "hello" {
		t.Errorf("json mode output invalid: %q (%v)", buf.String(), err)
	}

	buf.Reset()
	logger, err = NewLogger("off", &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	logger.Error("dropped")
	if buf.Len() != 0 {
		t.Errorf("off mode wrote %q", buf.String())
	}

	if _, err := NewLogger("verbose", &buf, nil); err == nil {
		t.Error("unknown mode accepted")
	}

	// With a recorder, records inside a span carry span/stage attrs.
	buf.Reset()
	r := obs.NewRecorder()
	logger, err = NewLogger("text", &buf, r)
	if err != nil {
		t.Fatal(err)
	}
	sp := r.StartSpan(obs.StageProfile)
	logger.Info("stamped")
	sp.End()
	if out := buf.String(); !strings.Contains(out, "stage="+obs.StageProfile) {
		t.Errorf("recorder-wired logger missing stage attr: %q", out)
	}
}

// TestServeLiveSuite is the acceptance pass: while a real suite run is in
// flight with the server's recorder as its observer, /metrics must serve
// parseable text that includes at least one histogram family, and
// /healthz must answer.
func TestServeLiveSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real suite input")
	}
	rec := obs.NewRecorder()
	srv := NewServer(rec, obs.PipelineSurface)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.SetReady(true)

	done := make(chan error, 1)
	go func() {
		_, err := report.RunSuite(report.Options{
			Machine:       cpu.DefaultConfig(),
			Core:          core.ScaledConfig(),
			Benchmarks:    []string{"gzip"},
			ScaleOverride: 1,
			Jobs:          2,
			Observer:      rec,
		})
		done <- err
	}()

	scrape := func() (string, bool) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), strings.Contains(string(body), " histogram\n")
	}

	// Poll until a histogram family shows up mid-run (span ends feed the
	// span_us histograms almost immediately) or the run finishes.
	var sawHistogram bool
	deadline := time.After(60 * time.Second)
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("suite failed under serving: %v", err)
			}
			break poll
		case <-deadline:
			t.Fatal("suite did not finish within 60s")
		default:
			if body, ok := scrape(); ok {
				sawHistogram = true
				parsePromText(t, body)
				// Keep draining until the suite completes.
				if err := <-done; err != nil {
					t.Fatalf("suite failed under serving: %v", err)
				}
				break poll
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Whether we caught one mid-flight or only at the end, the final
	// snapshot must expose histograms.
	body, ok := scrape()
	if !ok {
		t.Fatalf("/metrics has no histogram family after the run:\n%s", body)
	}
	parsePromText(t, body)
	if !sawHistogram {
		t.Log("histogram appeared only after suite completion (fast run)")
	}
}

// Each surface's always-present families are part of the serving
// contract: an empty trace renders every one of them, zero-valued, with
// its declared kind — on the pipeline server that includes the seven
// execution-engine counters (block cache + superblock tier) — and
// populated counters pass through.
func TestWriteMetricsEngineCounters(t *testing.T) {
	for _, surface := range []obs.Surface{obs.PipelineSurface, obs.DaemonSurface} {
		var buf bytes.Buffer
		WriteMetrics(&buf, obs.NewRecorder().Export(), surface)
		values := parsePromText(t, buf.String())
		if missing := MissingSeries(buf.String(), surface); len(missing) > 0 {
			t.Errorf("surface %d: empty trace is missing %v", surface, missing)
		}
		for _, m := range obs.Declared() {
			name := MetricName(m.Name)
			if m.Kind == obs.Histogram {
				name += "_count"
			}
			if got, ok := values[name]; ok != m.AlwaysOn(surface) || ok && got != "0" {
				t.Errorf("surface %d: empty trace: %s = %q (rendered %v), always-on %v",
					surface, name, got, ok, m.AlwaysOn(surface))
			}
		}
	}

	rec := obs.NewRecorder()
	rec.Count(obs.BlockCacheHits.Name, 41)
	rec.Count(obs.SuperblockPromoted.Name, 3)
	rec.Count(obs.SuperblockChained.Name, 9001)
	var buf bytes.Buffer
	WriteMetrics(&buf, rec.Export(), obs.PipelineSurface)
	values := parsePromText(t, buf.String())
	want := map[string]string{
		"vp_blockcache_hits":          "41",
		"vp_blockcache_misses":        "0",
		"vp_superblock_promoted":      "3",
		"vp_superblock_demoted":       "0",
		"vp_superblock_side_exits":    "0",
		"vp_superblock_chained_insts": "9001",
	}
	for series, v := range want {
		if values[series] != v {
			t.Errorf("populated trace: %s = %q, want %q", series, values[series], v)
		}
	}
}
