package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
)

// newEquivDaemon is newTestDaemon with translation validation on.
func newEquivDaemon(t *testing.T, batch int) (*Daemon, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg := core.ScaledConfig()
	cfg.Equiv = true
	d, err := NewDaemon(cfg, []string{"m88ksim"}, 1, 2, 4, batch,
		testDriftCfg, nil, rec, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, rec
}

// awaitCount polls until the recorder's counter reaches n. Each round of
// these tests posts one batch and waits for its repack, so every repack
// snapshots exactly the records posted before it.
func awaitCount(t *testing.T, rec *obs.Recorder, counter string, n int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for rec.Export().Metrics.Counters[counter] < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s below %d after 60s", counter, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonProofMemoMatchesFreshBuild repacks one program several times
// through its proof memo, alternating two phase mixes, then rebuilds the
// latest snapshot with no memo: the published version must be byte for
// byte the fresh build's encoded PackageSet, certificates included.
func TestDaemonProofMemoMatchesFreshBuild(t *testing.T) {
	d, rec := newEquivDaemon(t, 3)
	h := d.Handler()
	st := d.programs["m88ksim"]
	spots := captureSpots(t, d, "m88ksim")
	shifted := drift.ShiftHotSpots(spots)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		batch := spots
		if i%2 == 1 {
			batch = shifted
		}
		if w := postSpots(t, h, "m88ksim", st.hash, batch); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
		awaitCount(t, rec, obs.DaemonRepacks.Name, int64(i+1))
	}
	latest, n, err := st.version("latest")
	if err != nil || n < 3 {
		t.Fatalf("want >= 3 published versions, have %d (%v, last error %q)", n, err, st.lastErr)
	}
	counters := rec.Export().Metrics.Counters
	if counters[obs.EquivMemoHits.Name] == 0 {
		t.Error("repacks of an unchanged program never hit the proof memo")
	}
	if got, want := counters[obs.EquivMemoHits.Name]+counters[obs.EquivMemoMisses.Name], counters[obs.EquivPackages.Name]; got != want {
		t.Errorf("memo hits+misses = %d, want one lookup per proved package (%d)", got, want)
	}

	pa := &core.ProfileArtifact{
		Schema:      core.ProfileArtifactSchema,
		Program:     st.name,
		ProgramHash: st.hash,
		ProfileKey:  d.cfg.ProfileKey(),
		Phases:      st.db.Snapshot(),
	}
	clone := st.prog.Clone()
	cloneImg, err := clone.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := core.RegionStage(d.cfg, cloneImg, pa)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.PackageStage(d.cfg, clone, cloneImg, ra)
	if err != nil {
		t.Fatal(err)
	}
	set.Program = st.name
	var fresh bytes.Buffer
	if err := set.EncodeJSON(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(latest.set, fresh.Bytes()) {
		t.Fatalf("version %d built through the proof memo differs from a fresh build (%d vs %d bytes)",
			n, len(latest.set), fresh.Len())
	}
}

// TestDaemonRepackPanicIsolated injects a panicking build: the repack
// must fail as a version (a repack_done event naming the panic, the
// vpackd.repack_panics counter) while the daemon keeps serving the last
// good version and repacks the program again on its next batch.
func TestDaemonRepackPanicIsolated(t *testing.T) {
	d, rec := newEquivDaemon(t, 3)
	h := d.Handler()
	st := d.programs["m88ksim"]
	spots := captureSpots(t, d, "m88ksim")
	post := func() {
		t.Helper()
		if w := postSpots(t, h, "m88ksim", st.hash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}
	post()
	awaitCount(t, rec, obs.DaemonRepacks.Name, 1)
	good, n, err := st.version("latest")
	if err != nil || n != 1 {
		t.Fatalf("first repack published no version: %v (last error %q)", err, st.lastErr)
	}

	// The next build proves every package, then panics. The seam is
	// swapped between repacks: the enqueue that starts the next one
	// orders this write before the worker's read.
	d.build = func(st *programState, pa *core.ProfileArtifact, prov *core.Provenance) ([]byte, error) {
		if _, err := d.buildVersion(st, pa, prov); err != nil {
			t.Errorf("build before the injected panic: %v", err)
		}
		panic("injected build failure")
	}
	post()
	awaitCount(t, rec, obs.DaemonRepackPanics.Name, 1)
	latest, n, err := st.version("latest")
	if err != nil || n != 1 || !bytes.Equal(latest.set, good.set) {
		t.Fatalf("after the panic latest is version %d (%v), want the last good version 1", n, err)
	}
	if !strings.Contains(st.lastErr, "injected build failure") {
		t.Errorf("lastErr %q does not name the panic", st.lastErr)
	}
	events, _, _ := d.events.Since(0, 0)
	found := false
	for _, e := range events {
		if e.Kind == drift.EventRepackDone && strings.Contains(e.Detail, "injected build failure") {
			found = true
		}
	}
	if !found {
		t.Errorf("no repack_done event names the panic: %+v", events)
	}

	// The shard is not left pending: its next batch repacks again, and
	// the memo still holds the last good build's proofs.
	d.build = d.buildVersion
	before := rec.Export().Metrics.Counters[obs.EquivMemoMisses.Name]
	post()
	awaitCount(t, rec, obs.DaemonRepacks.Name, 3)
	if _, n, err := st.version("latest"); err != nil || n != 2 {
		t.Fatalf("repack after the panic published version %d (%v, last error %q), want 2", n, err, st.lastErr)
	}
	if after := rec.Export().Metrics.Counters[obs.EquivMemoMisses.Name]; after != before {
		t.Errorf("rebuilding the same profile proved %d obligations afresh, want all from the memo", after-before)
	}
}
