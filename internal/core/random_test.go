package core

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// TestRandomProgramsThroughPipeline is the repository's broadest property
// test: structurally random programs must (a) verify, (b) run, and (c)
// remain functionally equivalent after packaging, for every variant. Runs
// that detect no usable phases (legitimately possible for degenerate
// random structures) are skipped, not failed.
func TestRandomProgramsThroughPipeline(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	packed := 0
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		p := workload.Random(r)
		if err := p.Verify(); err != nil {
			t.Fatalf("trial %d: generated program invalid: %v", trial, err)
		}
		v := Variants()[trial%4]
		out, err := Run(v.Apply(ScaledConfig()), cpu.DefaultConfig(), p)
		if err != nil {
			t.Logf("trial %d (%s): pipeline declined: %v", trial, v.Name(), err)
			continue
		}
		ev, err := out.Evaluate()
		if err != nil {
			t.Fatalf("trial %d: evaluate: %v", trial, err)
		}
		if !ev.Equivalent {
			t.Fatalf("trial %d (%s): random program diverged after packaging", trial, v.Name())
		}
		if err := out.Packed.Verify(); err != nil {
			t.Fatalf("trial %d: packed program invalid: %v", trial, err)
		}
		packed++
	}
	if packed == 0 {
		t.Fatal("no random program was packable; generator is too degenerate")
	}
	t.Logf("packed and verified %d/%d random programs", packed, trials)
}
