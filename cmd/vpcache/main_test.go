package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/report"
)

// TestStatListsEveryKind: on a store written by RunSuite, vpcache stat
// prints one count line for every kind the store holds, and every such
// kind is one cas.Kinds declares.
func TestStatListsEveryKind(t *testing.T) {
	s, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := report.RunSuite(report.Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim"},
		ScaleOverride: 1,
		Store:         s,
	}); err != nil {
		t.Fatal(err)
	}
	present := map[string]int{}
	for _, e := range s.List() {
		present[e.Kind]++
	}
	for _, k := range []string{cas.KindPackageSet, cas.KindPackedText, cas.KindEvaluation} {
		if present[k] == 0 {
			t.Errorf("RunSuite stored no %s entry", k)
		}
	}
	var out bytes.Buffer
	writeStat(&out, s)
	for k, n := range present {
		if !slices.Contains(cas.Kinds, k) {
			t.Errorf("kind %q is missing from cas.Kinds", k)
		}
		if line := fmt.Sprintf("  %-17s %d\n", k, n); !strings.Contains(out.String(), line) {
			t.Errorf("stat output lacks %q:\n%s", line, out.String())
		}
	}
}
