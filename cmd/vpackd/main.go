// Command vpackd is the continuous-optimization daemon: it accepts
// hardware hot-spot records streamed over HTTP from many concurrent
// clients, aggregates them into per-program profile artifacts, and
// continuously repackages each program through the staged pipeline's
// composer (core.Compose: the region and package stages), serving the resulting versioned
// PackageSets back out. This is the paper's vacuum-packing loop run as
// a service: detection happens at the clients, packing here.
//
// Every ingest and repack is request-scoped: profile POSTs carry (or are
// assigned) a Vpackd-Trace ID that flows through the queue into the
// published version's provenance record, and per-program drift trackers
// score the live stream against the snapshot behind the latest published
// packages (vp_drift_* metrics, /v1/drift, /v1/timeline, /v1/events).
// vpackd is the only tool that sizes the trackers (-driftwindow,
// -driftring); /v1/drift reports the sizing as enabled, window_records
// and ring_windows, which is where vpbench -phaseshift reads it from.
//
// API (JSON):
//
//	GET  /v1/programs                         registered programs + stats
//	POST /v1/profiles/{program}               stream hot-spot records
//	GET  /v1/packages/{program}/{version}     fetch a PackageSet ("latest" ok)
//	GET  /v1/provenance/{program}/{version}   a version's build record
//	GET  /v1/drift/{program}                  live drift status + score
//	GET  /v1/timeline/{program}               retained drift windows
//	GET  /v1/events?after=N&limit=M           bounded event ring (cursor)
//	GET  /metrics, /trace, /healthz, /readyz, /debug/pprof/...
//
// Usage:
//
//	vpackd -addr :8090
//	vpackd -bench m88ksim,vortex -batch 50 -workers 2
//	vpackd -driftwindow 8 -driftring 32        # drift tracker sizing (0 disables)
//	vpbench -daemon http://localhost:8090      # load generator
//	vpbench -daemon URL -phaseshift            # drift-inducing load
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cas"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address (\":0\" picks a free port)")
		addrFile = flag.String("addrfile", "", "write the bound address to this `file` once listening (for scripted startup)")
		benches  = flag.String("bench", "", "comma-separated benchmarks to serve (default: all)")
		scale    = flag.Int64("scale", 0, "override the benchmark input scale (0: input default)")
		workers  = flag.Int("workers", 2, "repack worker goroutines")
		queueCap = flag.Int("queue", 8, "bounded repack queue capacity")
		batch    = flag.Int("batch", 25, "hot-spot records accumulated before a shard is re-queued for repacking")
		driftWin = flag.Int("driftwindow", drift.DefaultWindow, "hot-spot records per drift analysis window (0 disables drift tracking)")
		driftRng = flag.Int("driftring", drift.DefaultRing, "closed drift windows retained per program (0 disables drift tracking)")
		storeDir = cliflags.StoreFlag(flag.CommandLine)
		verifyOn = cliflags.VerifyFlag(flag.CommandLine)
		equivOn  = cliflags.EquivFlag(flag.CommandLine)
		logf     = cliflags.LogFlags(flag.CommandLine, "no daemon logs (same as -log off)")
	)
	flag.Parse()
	driftCfg := drift.DefaultConfig()
	driftCfg.Window, driftCfg.Ring = *driftWin, *driftRng
	os.Exit(run(*addr, *addrFile, *benches, *scale, *workers, *queueCap, *batch, driftCfg, *storeDir, *verifyOn, *equivOn, logf.Mode()))
}

func run(addr, addrFile, benches string, scale int64, workers, queueCap, batch int, driftCfg drift.Config, storeDir string, verify, equiv bool, logMode string) int {
	rec := obs.NewRecorder()
	logger, err := telemetry.NewLogger(logMode, os.Stderr, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpackd:", err)
		return 2
	}

	cfg := core.ScaledConfig()
	cfg.Verify = verify
	cfg.Equiv = equiv

	// The daemon owns the store for its whole lifetime: versions recover
	// from it at boot and Close flushes it on the signal path below.
	var store *cas.Store
	if storeDir != "" {
		store, err = cas.Open(storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpackd:", err)
			return 2
		}
		if lerr := store.LoadErr(); lerr != nil {
			logger.Warn("store opened degraded", "dir", storeDir, "err", lerr)
		}
	}

	d, err := NewDaemon(cfg, splitList(benches), scale, workers, queueCap, batch, driftCfg, store, rec, logger)
	if err != nil {
		if store != nil {
			store.Close()
		}
		fmt.Fprintln(os.Stderr, "vpackd:", err)
		if errors.Is(err, ErrUnknownProgram) {
			var names []string
			for _, b := range workload.Ordered() {
				names = append(names, b.Name)
			}
			fmt.Fprintln(os.Stderr, "vpackd: known benchmarks:", strings.Join(names, ", "))
		}
		return 2
	}

	srv := &http.Server{Addr: addr, Handler: d.Handler(), ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	ln, err := listen(srv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpackd:", err)
		return 1
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vpackd:", err)
			return 1
		}
	}
	logger.Info("listening", "addr", ln, "programs", len(d.programs),
		"workers", workers, "queue", queueCap, "batch", batch)

	// SIGINT/SIGTERM: stop accepting requests, drain in-flight handlers,
	// then drain the repack queue so no version is lost mid-build.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "vpackd: shutdown:", err)
	}
	d.Close()
	logger.Info("stopped")
	return 0
}

// listen binds srv.Addr and starts serving in the background, returning
// the bound address (resolving ":0").
func listen(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
