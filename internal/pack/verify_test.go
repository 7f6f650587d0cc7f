package pack_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/prog"
	"repro/internal/verify"
)

// TestInstallVerifierSpeaksFirst points a built package's exit at a block
// outside the program before installation. With a verifier hook the
// refusal is the hook's link-stage cfg/arc diagnostic, not the built-in
// structural check's first violation; without one the built-in check
// still refuses.
func TestInstallVerifierSpeaksFirst(t *testing.T) {
	foreign, err := asm.Assemble(".func main\n.main\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, hooked := range []bool{true, false} {
		p, pkgs := pack.TwoPhaseFixture(t)
		if len(pkgs[0].Exits) == 0 {
			t.Fatal("fixture package has no exits")
		}
		pkgs[0].Exits[0].Block.Next = foreign.Main.Blocks[0]
		cfg := pack.DefaultConfig()
		cfg.EnableLinking = false // a link would retarget the corrupted exit
		if hooked {
			cfg.Verify = func(p *prog.Program, _ *pack.Result) error { return verify.Program("link", p) }
		}
		_, err := pack.InstallObserved(cfg, p, pkgs, obs.Nop{})
		if err == nil {
			t.Fatalf("hooked=%v: install accepted an exit leaving the program", hooked)
		}
		if !hooked {
			var v prog.Violation
			if !errors.As(err, &v) || v.Rule != "cfg/arc" {
				t.Errorf("unhooked install refused with %v, want a cfg/arc prog.Violation", err)
			}
			continue
		}
		if !errors.Is(err, verify.ErrFailed) {
			t.Fatalf("hooked install refused with %v, want verify.ErrFailed", err)
		}
		found := false
		for _, d := range verify.Diagnostics(err) {
			found = found || d.Rule == "cfg/arc" && d.Stage == "link"
		}
		if !found {
			t.Errorf("no link-stage cfg/arc diagnostic in %v", err)
		}
	}
}
