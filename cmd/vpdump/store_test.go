package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain makes the test binary run vpdump itself when VPDUMP_RUN_MAIN
// is set, so a test can check the command's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("VPDUMP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStoreFlushFailureExits1: a -pkg dump whose final store flush fails
// exits 1 and names the store directory; on a healthy store it exits 0.
// A directory where the manifest belongs makes the flush's rename fail
// (Open recovers from the unreadable manifest with an empty store).
func TestStoreFlushFailureExits1(t *testing.T) {
	run := func(dir string) (int, string) {
		cmd := exec.Command(os.Args[0], "-bench", "li", "-pkg", "0", "-q", "-store", dir)
		cmd.Env = append(os.Environ(), "VPDUMP_RUN_MAIN=1")
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
		t.Fatalf("vpdump: %v", err)
		return 0, ""
	}
	if code, stderr := run(filepath.Join(t.TempDir(), "good")); code != 0 {
		t.Fatalf("healthy store: exit %d, stderr:\n%s", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.MkdirAll(filepath.Join(bad, "MANIFEST.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	code, stderr := run(bad)
	if code != 1 {
		t.Fatalf("failed flush: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "store "+bad) {
		t.Errorf("stderr does not name the store directory %s:\n%s", bad, stderr)
	}
}
