package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
)

// TestMain makes the test binary run vpack itself when VPACK_RUN_MAIN is
// set, so a test can check the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("VPACK_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVpack runs vpack with args and returns its exit code and stderr.
func runVpack(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VPACK_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("vpack %v: %v", args, err)
	return 0, ""
}

// TestStoreFlushFailureExits1: a run whose final store flush fails exits
// 1 and names the store directory. The flush is made to fail by a
// directory where the manifest belongs: Open recovers from the unreadable
// manifest with an empty store, and the flush cannot rename the new
// manifest over the directory. The same run on a healthy store exits 0.
func TestStoreFlushFailureExits1(t *testing.T) {
	args := []string{"-bench", "li", "-scale", "1", "-q", "-store"}
	good := filepath.Join(t.TempDir(), "good")
	if code, stderr := runVpack(t, append(args, good)...); code != 0 {
		t.Fatalf("healthy store: exit %d, stderr:\n%s", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.MkdirAll(filepath.Join(bad, "MANIFEST.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stderr := runVpack(t, append(args, bad)...)
	if code != 1 {
		t.Fatalf("failed flush: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "store "+bad) {
		t.Errorf("stderr does not name the store directory %s:\n%s", bad, stderr)
	}
}

// TestDivergenceExits5: a packed run whose data-segment effects differ
// from the original's exits 5. The divergence is staged through the
// store: rewriting the stored profile's data hash makes the warm run
// compare the packed run with effects it cannot match. The cold run
// exits 0.
func TestDivergenceExits5(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "li", "-scale", "1", "-q", "-store", dir}
	if code, stderr := runVpack(t, args...); code != 0 {
		t.Fatalf("cold run: exit %d, stderr:\n%s", code, stderr)
	}
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, e := range s.List() {
		if e.Kind != cas.KindProfile {
			continue
		}
		pa, err := s.GetProfileArtifact(e.Key.A, e.Key.B)
		if err != nil {
			t.Fatal(err)
		}
		pa.Stats.DataHash ^= 1
		if err := s.PutProfileArtifact(e.Key.A, e.Key.B, pa); err != nil {
			t.Fatal(err)
		}
		rewritten++
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if rewritten != 1 {
		t.Fatalf("store holds %d profiles, want 1", rewritten)
	}
	code, stderr := runVpack(t, args...)
	if code != 5 {
		t.Fatalf("diverged run: exit %d, want 5; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "differ from the original") {
		t.Errorf("stderr does not report the divergence:\n%s", stderr)
	}
}
