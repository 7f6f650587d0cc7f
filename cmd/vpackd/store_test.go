package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// openStore opens a store in dir, failing the test on error. No cleanup
// is registered: the daemon under test owns and closes it.
func openStore(t *testing.T, dir string) *cas.Store {
	t.Helper()
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDaemonStoreRestart is the acceptance test for daemon persistence:
// a store-backed daemon publishes versions, shuts down cleanly, and a
// fresh daemon on the same store serves the previous latest PackageSet
// and its provenance immediately — zero repacks, zero ingests.
func TestDaemonStoreRestart(t *testing.T) {
	dir := t.TempDir()

	// First incarnation: stream, publish, shut down (Close flushes the
	// store — the graceful-shutdown path main.go drives on SIGTERM). The
	// stream is one POST, so it starts exactly one repack: the version
	// awaited is the last one Close persists.
	d1, _ := newTestDaemonStore(t, 3, openStore(t, dir))
	h1 := d1.Handler()
	spots := captureSpots(t, d1, "m88ksim")
	stream := append(append(append([]hsd.HotSpot(nil), spots...), spots...), spots...)
	if w := postSpots(t, h1, "m88ksim", 0, stream); w.Code != http.StatusOK {
		t.Fatalf("POST: %d: %s", w.Code, w.Body.String())
	}
	pkg1 := awaitVersion(t, h1, "m88ksim")
	prov1 := get(h1, "/v1/provenance/m88ksim/latest")
	if prov1.Code != http.StatusOK {
		t.Fatalf("GET provenance: %d", prov1.Code)
	}
	d1.Close()

	// Second incarnation on the same directory: the version history is
	// recovered at boot and served without any repack.
	d2, rec2 := newTestDaemonStore(t, 3, openStore(t, dir))
	h2 := d2.Handler()

	w := get(h2, "/v1/packages/m88ksim/latest")
	if w.Code != http.StatusOK {
		t.Fatalf("restarted daemon has no latest version: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), pkg1.Body.Bytes()) {
		t.Fatal("recovered PackageSet differs from the one published before restart")
	}
	set, err := core.DecodePackageSet(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if set.ProgramHash != d2.programs["m88ksim"].hash {
		t.Fatal("recovered version is for a different program build")
	}

	pw := get(h2, "/v1/provenance/m88ksim/latest")
	if pw.Code != http.StatusOK {
		t.Fatalf("restarted daemon has no provenance: %d", pw.Code)
	}
	got, err := core.DecodeProvenance(bytes.NewReader(pw.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecodeProvenance(bytes.NewReader(prov1.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != want.Trace || got.Version != want.Version || got.PackageHash != want.PackageHash {
		t.Fatalf("recovered provenance %+v, want %+v", got, want)
	}

	tr := rec2.Export()
	if n := tr.Metrics.Counters[obs.DaemonRepacks.Name]; n != 0 {
		t.Fatalf("restart ran %d repacks; recovery must serve without repacking", n)
	}
	if n := tr.Metrics.Counters[obs.DaemonRecovered.Name]; n == 0 {
		t.Fatal("recovery counter not incremented")
	}

	// The store series render on /metrics with a real footprint.
	body := get(h2, "/metrics").Body.String()
	if !strings.Contains(body, telemetry.MetricName(obs.StoreBytes.Name)) {
		t.Error("/metrics missing the store bytes gauge")
	}
	if !strings.Contains(body, telemetry.MetricName(obs.DaemonRecovered.Name)) {
		t.Error("/metrics missing the recovered-versions counter")
	}
}

// TestDaemonPublishSettled: a version becomes visible only once it is
// durable and the drift tracker measures against it. While the persist
// step of version 2 is held open, latest stays at version 1 and the drift
// baseline is still version 1; as soon as latest is version 2, /v1/drift
// reports it as the baseline.
func TestDaemonPublishSettled(t *testing.T) {
	d, _ := newTestDaemonStore(t, 3, openStore(t, t.TempDir()))
	h := d.Handler()
	st := d.programs["m88ksim"]
	spots := captureSpots(t, d, "m88ksim")
	post := func() {
		t.Helper()
		if w := postSpots(t, h, "m88ksim", st.hash, spots); w.Code != http.StatusOK {
			t.Fatalf("POST profile: %d: %s", w.Code, w.Body.String())
		}
	}
	latest := func() string { return get(h, "/v1/packages/m88ksim/latest").Header().Get("Vpackd-Version") }
	baseline := func() int {
		t.Helper()
		var s drift.Status
		if err := json.Unmarshal(get(h, "/v1/drift/m88ksim").Body.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		return s.BaselineVersion
	}

	post()
	awaitVersion(t, h, "m88ksim")
	if v := latest(); v != "1" {
		t.Fatalf("one POST published version %s, want 1", v)
	}

	// Hold the next version between build and publication. The seam is
	// swapped between repacks: the enqueue that starts the next one
	// orders this write before the worker's read.
	entered := make(chan int, 1)
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	d.persist = func(name string, version int, encoded []byte, prov *core.Provenance) error {
		entered <- version
		<-release
		return d.persistVersion(name, version, encoded, prov)
	}
	post()
	select {
	case v := <-entered:
		if v != 2 {
			t.Fatalf("persisting version %d, want 2", v)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("version 2 never reached the persist step")
	}
	for i := 0; i < 5; i++ {
		if v := latest(); v != "1" {
			t.Fatalf("latest is version %s while version 2 is not yet durable", v)
		}
		if b := baseline(); b != 1 {
			t.Fatalf("drift baseline is version %d while version 2 is not yet durable", b)
		}
		time.Sleep(10 * time.Millisecond)
	}

	once.Do(func() { close(release) })
	deadline := time.Now().Add(60 * time.Second)
	for latest() != "2" {
		if time.Now().After(deadline) {
			t.Fatal("version 2 never published")
		}
		time.Sleep(time.Millisecond)
	}
	if b := baseline(); b != 2 {
		t.Fatalf("latest is version 2 but the drift baseline is version %d", b)
	}
}

// TestDaemonStoreRepackContinues: after recovery, fresh streams continue
// the version sequence — version N+1, not a restart at 1 — and persist
// in turn.
func TestDaemonStoreRepackContinues(t *testing.T) {
	dir := t.TempDir()

	d1, _ := newTestDaemonStore(t, 3, openStore(t, dir))
	h1 := d1.Handler()
	spots := captureSpots(t, d1, "m88ksim")
	for i := 0; i < 3; i++ {
		postSpots(t, h1, "m88ksim", 0, spots)
	}
	awaitVersion(t, h1, "m88ksim")
	// Close waits for any repack still running, so the history read after
	// it is the one the store holds.
	d1.Close()
	d1.programs["m88ksim"].mu.Lock()
	n1 := len(d1.programs["m88ksim"].history)
	d1.programs["m88ksim"].mu.Unlock()

	d2, _ := newTestDaemonStore(t, 3, openStore(t, dir))
	h2 := d2.Handler()
	for i := 0; i < 3; i++ {
		postSpots(t, h2, "m88ksim", 0, spots)
	}
	// Wait until a version *newer* than the recovered history publishes.
	deadlineVersion(t, h2, "m88ksim", n1+1)
	d2.Close()

	// Third incarnation sees the continued sequence.
	d3, _ := newTestDaemonStore(t, 3, openStore(t, dir))
	st := d3.programs["m88ksim"]
	st.mu.Lock()
	n3 := len(st.history)
	provOK := n3 > 0 && st.history[n3-1].prov.Version == n3
	st.mu.Unlock()
	if n3 < n1+1 {
		t.Fatalf("third boot recovered %d versions, want >= %d", n3, n1+1)
	}
	if !provOK {
		t.Fatal("recovered provenance chain inconsistent with version history")
	}
}

// TestDaemonStoreStaleProgram: a store holding versions for a different
// program build (hash mismatch) is ignored at boot — the daemon starts
// empty rather than serving packages for a program it isn't running.
func TestDaemonStoreStaleProgram(t *testing.T) {
	dir := t.TempDir()

	d1, _ := newTestDaemonStore(t, 3, openStore(t, dir))
	h1 := d1.Handler()
	spots := captureSpots(t, d1, "m88ksim")
	for i := 0; i < 3; i++ {
		postSpots(t, h1, "m88ksim", 0, spots)
	}
	w := awaitVersion(t, h1, "m88ksim")
	d1.Close()

	// Corrupt the stored version's program hash by re-publishing a set
	// that claims a different build.
	set, err := core.DecodePackageSet(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	set.ProgramHash ^= 1
	var buf bytes.Buffer
	if err := set.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	if err := s.PutDaemonVersion("m88ksim", 1, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rec2 := newTestDaemonStore(t, 3, openStore(t, dir))
	if w := get(d2.Handler(), "/v1/packages/m88ksim/latest"); w.Code == http.StatusOK {
		t.Fatal("daemon served a version for a different program build")
	}
	if n := rec2.Export().Metrics.Counters[obs.DaemonRecovered.Name]; n != 0 {
		t.Fatalf("stale store counted %d recovered versions", n)
	}
}

// deadlineVersion polls until /v1/packages/{program}/{v} resolves.
func deadlineVersion(t *testing.T, h http.Handler, program string, v int) {
	t.Helper()
	path := "/v1/packages/" + program + "/" + strconv.Itoa(v)
	for i := 0; i < 3000; i++ {
		if w := get(h, path); w.Code == http.StatusOK {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("version %d never published", v)
}
