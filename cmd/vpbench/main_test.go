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
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// runMainArg, as the first argument of the test binary, makes it run
// vpbench itself on the remaining arguments, so a test can check the
// command's exit status.
const runMainArg = "vpbench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runVpbench runs vpbench with args and returns its exit code and stderr.
func runVpbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
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
	t.Fatalf("vpbench %v: %v", args, err)
	return 0, ""
}

// TestDivergenceExits5: a suite with a packed run whose data-segment
// effects differ from its original's exits 5. The divergence is staged
// through the store: rewriting one li variant's stored evaluation with a
// different data hash makes the warm run replay a divergence. The cold
// run exits 0. The warm run's CPU profile is still written.
func TestDivergenceExits5(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "li", "-scale", "1", "-q", "-table", "1", "-store", dir}
	if code, stderr := runVpbench(t, args...); code != 0 {
		t.Fatalf("cold run: exit %d, stderr:\n%s", code, stderr)
	}

	b, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	img, err := b.Build(in).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	imgHash := core.ImageHash(img)
	cfgHash := core.Variants()[0].Apply(core.ScaledConfig()).Hash()
	mkey := cas.MachineKey(cpu.DefaultConfig())
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := s.GetPackageSetMeta(imgHash, cfgHash)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.GetEvaluation(imgHash, cfgHash, mkey, set.PackedHash)
	if err != nil {
		t.Fatal(err)
	}
	ev.DataHash ^= 1
	if err := s.PutEvaluation(imgHash, cfgHash, mkey, set.PackedHash, ev); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code, stderr := runVpbench(t, append(args, "-cpuprofile", prof)...)
	if code != 5 {
		t.Fatalf("diverged run: exit %d, want 5; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "diverged from their original: 1\n") {
		t.Errorf("stderr does not count the one divergence:\n%s", stderr)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("diverged run left no CPU profile (stat: %v)", err)
	}
}

// TestValidSelection: -table accepts 1-3 and -figure 8-10 (0 when not
// given); every other value is refused before the suite runs.
func TestValidSelection(t *testing.T) {
	for _, tc := range []struct {
		table, figure int
		ok            bool
	}{
		{0, 0, true},
		{1, 0, true},
		{2, 0, true},
		{3, 0, true},
		{0, 8, true},
		{0, 9, true},
		{0, 10, true},
		{4, 0, false},
		{-1, 0, false},
		{0, 7, false},
		{0, 11, false},
		{0, 1, false},
		{0, -8, false},
		{5, 8, false},
		{1, 7, false},
	} {
		if got := validSelection(tc.table, tc.figure); got != tc.ok {
			t.Errorf("validSelection(%d, %d) = %v, want %v", tc.table, tc.figure, got, tc.ok)
		}
	}
}
