// Load-generator mode (-daemon): instead of running the suite locally,
// vpbench plays the role of many deployed clients whose hardware
// detectors stream hot-spot records to a vpackd instance. It discovers
// the daemon's registered programs, captures genuine detector output by
// profiling each benchmark locally, streams the records over -streams
// concurrent connections, waits for the daemon to publish a package
// version per program, and finally scrapes /metrics and exits nonzero —
// naming every missing series — unless the daemon's queue/latency and
// drift series are all exported. With -phaseshift it additionally
// synthesizes a phase shift (hot-set drop + bias flips) after the
// baseline publishes and asserts the daemon's drift score rises; the
// shifted burst is sized from the window the daemon reports on
// /v1/drift, so vpbench has no drift flags of its own, and a daemon that
// tracks no drift is refused before any record is captured or posted.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The daemon's v1 wire format (cmd/vpackd): hot spots travel in
// hsd.HotSpot's JSON form, and hashes as JSON strings.
type wirePost struct {
	ProgramHash uint64        `json:"program_hash,string"`
	HotSpots    []hsd.HotSpot `json:"hot_spots"`
}

type wireProgram struct {
	Program     string `json:"program"`
	Input       string `json:"input"`
	Scale       int64  `json:"scale"`
	ProgramHash uint64 `json:"program_hash,string"`
}

// postChunk bounds how many hot spots ride in one POST, so a stream is
// many small requests (like real trickling clients), not one big one.
const postChunk = 10

func runLoadgen(url string, streams, records int, benches, logMode string, phaseShift bool) int {
	logger, err := telemetry.NewLogger(logMode, os.Stderr, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpbench:", err)
		return 2
	}
	if err := loadgen(url, streams, records, benches, logger, phaseShift); err != nil {
		fmt.Fprintln(os.Stderr, "vpbench: daemon:", err)
		if errors.Is(err, core.ErrStaleArtifact) {
			fmt.Fprintln(os.Stderr, "vpbench: hint: the daemon serves a different build of the program; restart vpackd with matching -bench/-scale")
		}
		return 1
	}
	return 0
}

func loadgen(url string, streams, records int, benches string, logger *slog.Logger, phaseShift bool) error {
	url = strings.TrimSuffix(url, "/")
	if streams < 1 {
		streams = 1
	}
	if records < 1 {
		records = 1
	}
	client := &http.Client{Timeout: 60 * time.Second}

	var progs []wireProgram
	if err := getJSON(client, url+"/v1/programs", &progs); err != nil {
		return err
	}
	if benches != "" {
		want := make(map[string]bool)
		for _, b := range strings.Split(benches, ",") {
			want[strings.TrimSpace(b)] = true
		}
		var sel []wireProgram
		for _, p := range progs {
			if want[p.Program] {
				sel = append(sel, p)
			}
		}
		progs = sel
	}
	if len(progs) == 0 {
		return fmt.Errorf("daemon at %s serves no matching programs", url)
	}
	var windows map[string]int
	if phaseShift {
		var err error
		if windows, err = driftWindows(client, url, progs); err != nil {
			return err
		}
	}

	captured := make(map[string][]hsd.HotSpot, len(progs))
	for _, p := range progs {
		spots, err := captureSpots(p)
		if err != nil {
			return err
		}
		captured[p.Program] = spots
		logger.Info("captured", "program", p.Program, "hot_spots", len(spots))
		if err := streamSpots(client, url, p, spots, streams, records, logger); err != nil {
			return err
		}
	}

	for _, p := range progs {
		set, version, err := awaitPackage(client, url, p)
		if err != nil {
			return err
		}
		logger.Info("package ready", "program", p.Program, "version", version,
			"packages", len(set.Packages), "code_growth", fmt.Sprintf("%.3f", set.CodeGrowth()))
	}

	var peak float64
	if phaseShift {
		var err error
		if peak, err = runPhaseShift(client, url, progs, captured, windows, streams, logger); err != nil {
			return err
		}
	}

	if err := checkMetrics(client, url); err != nil {
		return err
	}
	if phaseShift {
		fmt.Printf("daemon ok: %d programs, %d records x %d streams each, packages fetched, phase shift drove drift peak to %.3f, metrics exported\n",
			len(progs), records, streams, peak)
	} else {
		fmt.Printf("daemon ok: %d programs, %d records x %d streams each, packages fetched, metrics exported\n",
			len(progs), records, streams)
	}
	return nil
}

// driftWindows reads each program's drift status from the daemon and
// returns its tracker window in records. -phaseshift needs drift
// tracking, so a program the daemon tracks no drift for is refused here,
// before loadgen captures or posts anything.
func driftWindows(client *http.Client, url string, progs []wireProgram) (map[string]int, error) {
	windows := make(map[string]int, len(progs))
	for _, p := range progs {
		var st drift.Status
		if err := getJSON(client, url+"/v1/drift/"+p.Program, &st); err != nil {
			return nil, fmt.Errorf("%s: drift status: %w", p.Program, err)
		}
		if !st.Enabled {
			return nil, fmt.Errorf("%s: -phaseshift needs drift tracking, and the daemon runs with it disabled (vpackd -driftwindow/-driftring must be > 0)", p.Program)
		}
		windows[p.Program] = st.WindowRecords
	}
	return windows, nil
}

// runPhaseShift streams each program's records through
// drift.ShiftHotSpots and polls /v1/drift until the daemon's score
// demonstrably rises, returning the highest peak observed. The burst is
// sized off the program's tracker window (driftWindows), so enough
// windows close to move the composite.
func runPhaseShift(client *http.Client, url string, progs []wireProgram, captured map[string][]hsd.HotSpot, windows map[string]int, streams int, logger *slog.Logger) (float64, error) {
	var best float64
	for _, p := range progs {
		// Enough records to close several windows even if some
		// interleave with the tail of the baseline stream.
		burst := windows[p.Program] * 8
		shifted := drift.ShiftHotSpots(captured[p.Program])
		if err := streamSpots(client, url, p, shifted, streams, burst, logger); err != nil {
			return 0, fmt.Errorf("%s: shifted stream: %w", p.Program, err)
		}
		peak, err := awaitDrift(client, url, p.Program)
		if err != nil {
			return 0, err
		}
		logger.Info("drift moved", "program", p.Program, "peak", fmt.Sprintf("%.3f", peak))
		if peak > best {
			best = peak
		}
	}
	return best, nil
}

// driftRiseThreshold is what "demonstrably moved" means for -phaseshift:
// the synthesized shift (40% hot-set drop + full bias flip) saturates
// the composite near 1.0 on a quiet stream, so well past this.
const driftRiseThreshold = 0.2

// awaitDrift polls the program's drift status until the peak score
// crosses driftRiseThreshold (the tracker's peak never resets, so a
// concurrent repack re-baselining cannot hide the excursion).
func awaitDrift(client *http.Client, url, program string) (float64, error) {
	deadline := time.Now().Add(60 * time.Second)
	var last drift.Status
	for {
		if err := getJSON(client, url+"/v1/drift/"+program, &last); err != nil {
			return 0, fmt.Errorf("%s: drift status: %w", program, err)
		}
		if last.Score.Peak > driftRiseThreshold {
			return last.Score.Peak, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s: drift score did not rise above %.2f after 60s (peak %.3f over %d windows)",
				program, driftRiseThreshold, last.Score.Peak, last.Windows)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// captureSpots rebuilds the advertised benchmark input and profiles it
// locally, keeping the detector's raw hot-spot records — exactly what a
// deployed client's hardware monitor would stream.
func captureSpots(p wireProgram) ([]hsd.HotSpot, error) {
	b, err := workload.ByName(p.Program)
	if err != nil {
		return nil, err
	}
	in, err := b.InputByName(p.Input)
	if err != nil {
		return nil, err
	}
	in.Scale = p.Scale
	img, err := b.Build(in).Linearize()
	if err != nil {
		return nil, err
	}
	if h := core.ImageHash(img); h != p.ProgramHash {
		return nil, fmt.Errorf("%s: local image %016x, daemon image %016x: %w",
			p.Program, h, p.ProgramHash, core.ErrStaleArtifact)
	}

	spots, err := core.HotSpots(core.ScaledConfig(), img)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Program, err)
	}
	if len(spots) == 0 {
		return nil, fmt.Errorf("%s: no hot spots detected; raise the daemon's -scale", p.Program)
	}
	return spots, nil
}

// streamSpots posts records total hot-spot records for one program over
// streams concurrent connections, cycling the captured spots as needed.
func streamSpots(client *http.Client, url string, p wireProgram, spots []hsd.HotSpot, streams, records int, logger *slog.Logger) error {
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for s := 0; s < streams; s++ {
		// Spread the total across the streams, front-loading remainders.
		n := records / streams
		if s < records%streams {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(s, n int) {
			defer wg.Done()
			for sent := 0; sent < n; {
				chunk := min(postChunk, n-sent)
				batch := make([]hsd.HotSpot, chunk)
				for i := 0; i < chunk; i++ {
					batch[i] = spots[(s+sent+i)%len(spots)]
				}
				if err := postProfile(client, url, p, batch); err != nil {
					errs[s] = err
					return
				}
				sent += chunk
			}
		}(s, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	logger.Info("streamed", "program", p.Program, "records", records, "streams", streams)
	return nil
}

func postProfile(client *http.Client, url string, p wireProgram, spots []hsd.HotSpot) error {
	body, err := json.Marshal(wirePost{ProgramHash: p.ProgramHash, HotSpots: spots})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/v1/profiles/"+p.Program, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("%s: POST profile: %s: %s", p.Program, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusConflict {
			err = fmt.Errorf("%w: %w", err, core.ErrStaleArtifact)
		}
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// awaitPackage polls the program's latest package version until the
// daemon has built one, then decodes and sanity-checks it.
func awaitPackage(client *http.Client, url string, p wireProgram) (*core.PackageSet, int, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(url + "/v1/packages/" + p.Program + "/latest")
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode == http.StatusOK {
			set, err := core.DecodePackageSet(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, 0, fmt.Errorf("%s: decode package: %w", p.Program, err)
			}
			version := 0
			fmt.Sscanf(resp.Header.Get("Vpackd-Version"), "%d", &version)
			if set.ProgramHash != p.ProgramHash {
				return nil, 0, fmt.Errorf("%s: package for image %016x, daemon advertised %016x: %w",
					p.Program, set.ProgramHash, p.ProgramHash, core.ErrStaleArtifact)
			}
			return set, version, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("%s: no package version after 60s (status %s)", p.Program, resp.Status)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checkMetrics scrapes /metrics and asserts the daemon surface's serving
// contract: every family obs declares always present on vpackd — queue
// depth/wait, repack latency, record counters, the vp_drift_* series —
// must have its exact # TYPE line with the declared kind. The drift
// series are part of that contract, so they must exist even when the
// daemon runs with drift tracking disabled. All failures are collected
// into one error naming each missing series; the caller exits nonzero on
// it.
func checkMetrics(client *http.Client, url string) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if missing := telemetry.MissingSeries(string(body), obs.DaemonSurface); len(missing) > 0 {
		return fmt.Errorf("metrics assertion failed: /metrics is missing %d series: %s",
			len(missing), strings.Join(missing, ", "))
	}
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
