// Command vptrace analyzes vptrace/v1 JSON trace files written by
// vpack -trace and vpbench -trace (or scraped from /trace on a
// vpbench -serve process).
//
// Usage:
//
//	vptrace top [-n 15] trace.json           # hottest spans by total wall time
//	vptrace diff [-threshold 0.1] [-min-wall 1ms] old.json new.json
//	vptrace flame trace.json > folded.txt    # folded stacks for flamegraph.pl
//	vptrace drift trace.json                 # per-program drift summary
//
// diff compares per-stage wall-time totals and counters and exits 1 when
// anything regresses past the threshold — scripts/verify.sh runs it
// between a fresh trace and testdata/trace_golden.json as the CI
// trace-regression gate. Against a Normalize()d golden the wall-time
// columns are zero, so the gate bites on the deterministic counters
// (simulated cycles, phase/package/link counts); between two live traces
// it bites on wall time too.
//
// drift reads a trace scraped from vpackd's /trace and prints one row per
// program from the per-program drift.* metric series (samples, windows,
// the score axes, peak and baseline version) plus the score histogram.
// The metrics are the whole record: the drift tracker emits no trace
// events, and vpackd's /v1/events and /v1/timeline serve the live
// per-window history.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "top":
		cmdTop(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "flame":
		cmdFlame(os.Args[2:])
	case "drift":
		cmdDrift(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vptrace top [-n 15] trace.json
  vptrace diff [-threshold 0.1] [-min-wall 1ms] old.json new.json
  vptrace flame trace.json
  vptrace drift trace.json`)
	os.Exit(2)
}

func readTrace(path string) *obs.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := obs.ReadTrace(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return t
}

func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 15, "show the N hottest span names")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := readTrace(fs.Arg(0))

	totals := t.SpanTotals()
	// Hottest first; SpanTotals order (first appearance) breaks ties so
	// the listing is deterministic.
	for i := 1; i < len(totals); i++ {
		for j := i; j > 0 && totals[j].Total > totals[j-1].Total; j-- {
			totals[j], totals[j-1] = totals[j-1], totals[j]
		}
	}
	if len(totals) > *n {
		totals = totals[:*n]
	}
	fmt.Printf("%-32s %6s %14s %14s\n", "span", "count", "total", "avg")
	for _, st := range totals {
		avg := time.Duration(0)
		if st.Count > 0 {
			avg = st.Total / time.Duration(st.Count)
		}
		fmt.Printf("%-32s %6d %14v %14v\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), avg.Round(time.Microsecond))
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10, "fractional growth tolerated before a row regresses")
	minWall := fs.Duration("min-wall", time.Millisecond, "noise floor: stages faster than this in both traces never regress")
	all := fs.Bool("all", false, "print unchanged counters too")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	oldT, newT := readTrace(fs.Arg(0)), readTrace(fs.Arg(1))

	d := obs.DiffTraces(oldT, newT, obs.DiffOptions{Threshold: *threshold, MinWall: *minWall})

	fmt.Printf("stage wall-time (threshold +%.1f%%, noise floor %v):\n", *threshold*100, *minWall)
	fmt.Printf("  %-32s %12s %12s %9s\n", "span", "old", "new", "delta")
	for _, sd := range d.Stages {
		mark := ""
		if sd.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Printf("  %-32s %12v %12v %+8.1f%%%s\n", sd.Name,
			time.Duration(sd.OldUS)*time.Microsecond,
			time.Duration(sd.NewUS)*time.Microsecond,
			sd.Frac*100, mark)
	}

	fmt.Println("counters:")
	changed := 0
	for _, cd := range d.Counters {
		if cd.Old == cd.New && !*all {
			continue
		}
		changed++
		mark := ""
		if cd.Regressed {
			mark = "  REGRESSED"
		}
		fmt.Printf("  %-32s %12d %12d %+8.1f%%%s\n", cd.Name, cd.Old, cd.New, cd.Frac*100, mark)
	}
	if changed == 0 {
		fmt.Println("  (all counters identical)")
	}

	if d.Regressions > 0 {
		fmt.Printf("%d regression(s) past threshold\n", d.Regressions)
		os.Exit(1)
	}
	fmt.Println("no regressions")
}

func cmdDrift(args []string) {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	driftView(os.Stdout, readTrace(fs.Arg(0)))
}

// driftView renders the drift summary of t: one row per program that has
// a series in any per-program drift family, so a program whose stream
// has only been baselined still gets its row.
func driftView(w io.Writer, t *obs.Trace) {
	progs := map[string]bool{}
	program := func(name string) {
		if m, ok := obs.LookupMetric(name); ok && strings.HasPrefix(m.Name, "drift.") && name != m.Name {
			progs[name[len(m.Name)+1:]] = true
		}
	}
	for name := range t.Metrics.Counters {
		program(name)
	}
	for name := range t.Metrics.Gauges {
		program(name)
	}
	for name := range t.Metrics.Histograms {
		program(name)
	}
	if len(progs) == 0 {
		fmt.Fprintln(w, "no drift series in trace (is this a vpackd /trace with drift tracking enabled?)")
		return
	}
	names := make([]string, 0, len(progs))
	for p := range progs {
		names = append(names, p)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-16s %8s %8s %7s %7s %7s %6s %7s %9s\n",
		"program", "samples", "windows", "score", "peak", "diverg", "flips", "cross", "baseline")
	for _, p := range names {
		fmt.Fprintf(w, "%-16s %8d %8d %7.3f %7.3f %7.3f %6.0f %7.3f %9.0f\n",
			p,
			t.Metrics.Counters[obs.DriftSamples.For(p)],
			t.Metrics.Counters[obs.DriftWindows.For(p)],
			t.Metrics.Gauges[obs.DriftScore.For(p)],
			t.Metrics.Gauges[obs.DriftPeak.For(p)],
			t.Metrics.Gauges[obs.DriftHotSetDivergence.For(p)],
			t.Metrics.Gauges[obs.DriftBiasFlips.For(p)],
			t.Metrics.Gauges[obs.DriftFilterCrossings.For(p)],
			t.Metrics.Gauges[obs.DriftBaselineVersion.For(p)])
	}
	if h, ok := t.Metrics.Histograms[obs.DriftScorePct.Name]; ok && h.Count > 0 {
		fmt.Fprintf(w, "\nscore histogram (%%): %d observations, mean %.1f\n", h.Count, h.Sum/float64(h.Count))
	}
}

func cmdFlame(args []string) {
	fs := flag.NewFlagSet("flame", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	t := readTrace(fs.Arg(0))
	for _, fl := range t.Folded() {
		fmt.Printf("%s %d\n", fl.Stack, fl.SelfUS)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vptrace:", err)
	os.Exit(1)
}
