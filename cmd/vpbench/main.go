// Command vpbench regenerates the paper's evaluation tables and figures
// over the synthetic benchmark suite.
//
// Usage:
//
//	vpbench                 # everything (Tables 1-3, Figures 8-10)
//	vpbench -table 3        # one table
//	vpbench -figure 8       # one figure
//	vpbench -bench perl     # restrict the suite
//	vpbench -scale 1        # force a smaller iteration scale
//	vpbench -j 4            # run 4 inputs concurrently (default GOMAXPROCS)
//	vpbench -cpuprofile f   # write a pprof CPU profile of the run to f
//	vpbench -metrics        # per-stage wall-time, counter and histogram tables
//	vpbench -trace f        # write the suite's JSON span/event trace to f
//	vpbench -serve :9090    # expose /metrics, /trace, /healthz, /readyz,
//	                        # /debug/pprof while the suite runs
//	vpbench -log json       # structured progress records (text|json|off)
//	vpbench -verify         # static verifier gates every stage (exit 3 on violation)
//	vpbench -equiv          # prove every optimized package equivalent (exit 4 on refutation)
//	vpbench -store DIR      # suite profiles/packages served from + written to DIR
//	vpbench -daemon URL     # load generator: stream hot-spot profiles to vpackd
//	                        # (-streams, -records size the load; see loadgen.go)
//	vpbench -daemon URL -phaseshift  # then shift the phase and assert the
//	                        # daemon's drift score rises (the shifted burst
//	                        # is sized from the daemon's own drift window)
//
// Exit status: 0 when every packed run is equivalent to its original, 3
// and 4 as above, 5 when some packed run's data-segment effects differ
// from its original's (the output still prints, Figure 10 marking the
// input DIVERGED), 2 for a bad flag and 1 for any other failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	var (
		table      = flag.Int("table", 0, "print only Table N (1, 2 or 3)")
		figure     = flag.Int("figure", 0, "print only Figure N (8, 9 or 10)")
		benches    = flag.String("bench", "", "comma-separated benchmark subset")
		scale      = flag.Int64("scale", 0, "override every input's iteration scale")
		jobs       = flag.Int("j", 0, "concurrent benchmark inputs (0 = GOMAXPROCS, 1 = sequential)")
		logf       = cliflags.LogFlags(flag.CommandLine, "suppress progress records (same as -log off)")
		serve      = flag.String("serve", "", "serve /metrics, /trace, /healthz, /readyz and /debug/pprof on `addr` during the run")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to `file`")
		metrics    = flag.Bool("metrics", false, "print per-stage wall-time, counter, gauge and histogram tables after the suite")
		tracePath  = flag.String("trace", "", "write the suite's JSON span/event/metric trace to `file`")
		verifyOn   = cliflags.VerifyFlag(flag.CommandLine)
		equivOn    = cliflags.EquivFlag(flag.CommandLine)
		daemonURL  = flag.String("daemon", "", "load-generator mode: stream hot-spot profiles to a running vpackd at `url` instead of running the suite")
		streams    = flag.Int("streams", 8, "concurrent profile streams in -daemon mode")
		records    = flag.Int("records", 100, "total hot-spot records to stream in -daemon mode")
		phaseShift = flag.Bool("phaseshift", false, "in -daemon mode, follow the stream with a synthesized phase shift and assert the daemon's drift score rises")
		storeDir   = cliflags.StoreFlag(flag.CommandLine)
	)
	flag.Parse()
	if !validSelection(*table, *figure) {
		fmt.Fprintln(os.Stderr, "vpbench: unknown table/figure")
		os.Exit(2)
	}

	if *daemonURL != "" {
		os.Exit(runLoadgen(*daemonURL, *streams, *records, *benches, logf.Mode(), *phaseShift))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *table == 2 {
		fmt.Print(report.Table2(cpu.DefaultConfig()))
		return
	}

	opts := report.Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		ScaleOverride: *scale,
		Jobs:          *jobs,
	}
	opts.Core.Verify = *verifyOn
	opts.Core.Equiv = *equivOn
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	var rec *obs.Recorder
	if *metrics || *tracePath != "" || *serve != "" {
		rec = obs.NewRecorder()
		opts.Observer = rec
	}

	logger, err := telemetry.NewLogger(logf.Mode(), os.Stderr, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		os.Exit(2)
	}
	opts.Logger = logger

	if *storeDir != "" {
		s, err := cas.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench:", err)
			os.Exit(1)
		}
		defer s.Close()
		opts.Store = s
	}

	if *serve != "" {
		srv := telemetry.NewServer(rec, obs.PipelineSurface)
		addr, err := srv.Listen(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: serve:", err)
			os.Exit(1)
		}
		defer srv.Close()
		srv.SetReady(true)
		logger.Info("telemetry serving", "addr", addr)
	}

	suite, err := report.RunSuite(opts)
	if rec != nil && *tracePath != "" {
		if werr := writeTrace(*tracePath, rec); werr != nil {
			fmt.Fprintln(os.Stderr, "vpbench: trace:", werr)
		}
	}
	if err != nil {
		if errors.Is(err, core.ErrNoPhases) || errors.Is(err, core.ErrNoPackages) {
			fmt.Fprintln(os.Stderr, "vpbench: hint: some inputs were too short for the detector; raise -scale")
		}
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		if runs := report.Refused(err); len(runs) > 0 {
			fmt.Fprintf(os.Stderr, "vpbench: packed runs refused at their instruction budget: %d (%s)\n", len(runs), strings.Join(runs, ", "))
		}
		if errors.Is(err, core.ErrVerifyFailed) {
			os.Exit(3)
		}
		if errors.Is(err, core.ErrNotEquivalent) {
			os.Exit(4)
		}
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vpbench: memprofile:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *metrics {
		printMetrics(rec.Export())
	}
	switch {
	case *table == 1:
		fmt.Print(suite.Table1())
	case *table == 3:
		fmt.Print(suite.Table3())
	case *figure == 8:
		fmt.Print(suite.Figure8())
	case *figure == 9:
		fmt.Print(suite.Figure9())
	case *figure == 10:
		fmt.Print(suite.Figure10())
	case *metrics:
		// The metric tables alone.
	default:
		fmt.Println(suite.Table1())
		fmt.Println(report.Table2(cpu.DefaultConfig()))
		fmt.Println(suite.Figure8())
		fmt.Println(suite.Table3())
		fmt.Println(suite.Figure9())
		fmt.Println(suite.Figure10())
	}

	if n := suite.Diverged(); n > 0 {
		// RunSuite has flushed the store; os.Exit skips the deferred
		// calls, so the CPU profile is finished here.
		fmt.Fprintf(os.Stderr, "vpbench: packed runs diverged from their original: %d\n", n)
		pprof.StopCPUProfile()
		os.Exit(5)
	}
}

// validSelection reports whether -table is 1-3 and -figure 8-10, either
// one 0 when not given; main checks it before any of the suite runs.
func validSelection(table, figure int) bool {
	return table >= 0 && table <= 3 && (figure == 0 || figure >= 8 && figure <= 10)
}

// writeTrace dumps the recorder's trace as indented JSON.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Export().WriteJSON(f)
}

// printMetrics renders the per-stage wall-time table (canonical stages
// first, other spans after) and the counter/gauge tables.
func printMetrics(t *obs.Trace) {
	totals := t.SpanTotals()
	byName := make(map[string]obs.SpanTotal, len(totals))
	for _, st := range totals {
		byName[st.Name] = st
	}
	fmt.Println("stage                        spans      total wall")
	seen := make(map[string]bool)
	for _, name := range obs.Stages() {
		if st, ok := byName[name]; ok {
			fmt.Printf("%-26s %6d  %14v\n", st.Name, st.Count, st.Total.Round(time.Microsecond))
			seen[name] = true
		}
	}
	other := 0
	var otherTotal time.Duration
	for _, st := range totals {
		if !seen[st.Name] {
			other += st.Count
			otherTotal += st.Total
		}
	}
	if other > 0 {
		fmt.Printf("%-26s %6d  %14v\n", "(input/variant spans)", other, otherTotal.Round(time.Microsecond))
	}

	if len(t.Metrics.Counters) > 0 {
		fmt.Println("\ncounter                                 value")
		names := make([]string, 0, len(t.Metrics.Counters))
		for name := range t.Metrics.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-34s %10d\n", name, t.Metrics.Counters[name])
		}
	}
	if len(t.Metrics.Gauges) > 0 {
		fmt.Println("\ngauge                                   value")
		names := make([]string, 0, len(t.Metrics.Gauges))
		for name := range t.Metrics.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-34s %10.3f\n", name, t.Metrics.Gauges[name])
		}
	}
	if len(t.Metrics.Histograms) > 0 {
		fmt.Println("\nhistogram                               count         mean       ~p50       ~p99")
		names := make([]string, 0, len(t.Metrics.Histograms))
		for name := range t.Metrics.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := t.Metrics.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Printf("%-34s %10d %12.1f %10v %10v\n", name, h.Count,
				h.Sum/float64(h.Count), histQuantile(h, 0.50), histQuantile(h, 0.99))
		}
	}
}

// histQuantile returns the upper bound of the bucket holding the q-th
// observation — an order-of-magnitude quantile, which is all the
// power-of-two layout resolves.
func histQuantile(h obs.HistogramRecord, q float64) string {
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	bounds := obs.HistogramBounds()
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i < len(bounds) {
				return strconv.FormatFloat(bounds[i], 'g', -1, 64)
			}
			break
		}
	}
	return ">" + strconv.FormatFloat(bounds[len(bounds)-1], 'g', -1, 64)
}
