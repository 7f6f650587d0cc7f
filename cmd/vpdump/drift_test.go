package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// composite runs driftReport on m88ksim at scale 1 and reads the
// composite score off the report's breakdown.
func composite(t *testing.T, shift bool) float64 {
	t.Helper()
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in := b.Inputs[0]
	in.Scale = 1
	var out bytes.Buffer
	if err := driftReport(&out, core.ScaledConfig(), b.Build(in), b.Name, shift); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "composite"); ok {
			var score float64
			if _, err := fmt.Sscan(rest, &score); err != nil {
				t.Fatalf("composite line %q: %v", line, err)
			}
			return score
		}
	}
	t.Fatalf("no composite line in the report:\n%s", out.String())
	return 0
}

// TestDriftReportShiftRaisesScore: replaying the phase-shifted stream
// scores a higher composite drift than the stable replay.
func TestDriftReportShiftRaisesScore(t *testing.T) {
	stable, shifted := composite(t, false), composite(t, true)
	if shifted <= stable {
		t.Fatalf("shifted composite %.3f, stable %.3f: the shift did not raise the score", shifted, stable)
	}
}
