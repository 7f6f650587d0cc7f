package core

import (
	"errors"
	"testing"

	"repro/internal/equiv"
	"repro/internal/workload"
)

// TestEquivSuiteClean is the translation-validation property test: with
// the -equiv gate on, every package the pipeline builds across the whole
// workload suite must be proved observationally equivalent to its region
// code — zero violations on a clean pipeline. A proof past its path
// budget is a refusal, which already fails runPipeline.
func TestEquivSuiteClean(t *testing.T) {
	totalPkgs, proved, cuts := 0, 0, 0
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := ScaledConfig()
			cfg.Equiv = true
			out, _ := runPipeline(t, b.Name, "A", cfg)
			if len(out.Equiv) == 0 {
				t.Fatalf("%s: equiv run produced no certificates", b.Name)
			}
			for _, c := range out.Equiv {
				totalPkgs++
				proved += c.PathsProved
				cuts += c.Cuts
				if !c.Equivalent {
					t.Errorf("%s: %s", b.Name, c.Verdict())
				}
				if c.PathsProved == 0 {
					t.Errorf("%s: %s proved no paths", b.Name, c.Package)
				}
			}
		})
	}
	t.Logf("equiv suite: %d packages, %d paths proved, %d join cuts", totalPkgs, proved, cuts)
}

// TestEquivKnobsChangeConfigHash locks the store-keying contract: the
// equiv knobs participate in Config.Hash (certificates land in the
// PackageSet, so a warm store entry from a non-equiv run must not be
// served to an equiv run), and do not participate in ProfileKey
// (profiling is unaffected).
func TestEquivKnobsChangeConfigHash(t *testing.T) {
	base := ScaledConfig()
	on := base
	on.Equiv = true
	if base.Hash() == on.Hash() {
		t.Error("Config.Hash ignores Equiv")
	}
	budget := on
	budget.EquivMaxPaths = 7
	if on.Hash() == budget.Hash() {
		t.Error("Config.Hash ignores EquivMaxPaths")
	}
	if base.ProfileKey() != on.ProfileKey() || base.ProfileKey() != budget.ProfileKey() {
		t.Error("ProfileKey must not depend on equiv knobs")
	}
}

// TestEquivErrSentinel checks the core re-export matches equiv errors.
func TestEquivErrSentinel(t *testing.T) {
	err := &equiv.Error{Package: "p"}
	if !errors.Is(err, ErrNotEquivalent) {
		t.Error("equiv.Error does not match core.ErrNotEquivalent")
	}
}
