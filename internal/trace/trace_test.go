package trace

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// tracePipeline profiles a workload and deploys traces instead of packages.
func tracePipeline(t *testing.T, bench string) (*Result, *cpu.TimingStats, *cpu.TimingStats, bool) {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	in := b.Inputs[0]
	in.Scale = 1
	p := b.Build(in)
	base := p.Clone()

	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	pa, err := core.ProfileStage(core.ScaledConfig(), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := pa.DB()
	res, err := Build(DefaultConfig(), p, img, db)
	if err != nil {
		t.Fatal(err)
	}

	baseImg, err := base.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	tracedImg, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	baseStats, baseM, err := cpu.RunTimed(cpu.DefaultConfig(), baseImg, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracedStats, tracedM, err := cpu.RunTimed(cpu.DefaultConfig(), tracedImg, 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, n1 := baseM.DataHash()
	h2, n2 := tracedM.DataHash()
	return res, &baseStats, &tracedStats, h1 == h2 && n1 == n2
}

func TestTracesDeployAndPreserveSemantics(t *testing.T) {
	res, _, traced, eq := tracePipeline(t, "gzip")
	if !eq {
		t.Fatal("traced program diverged from original")
	}
	if len(res.Traces) == 0 || res.LaunchPoints == 0 {
		t.Fatalf("traces=%d launch=%d", len(res.Traces), res.LaunchPoints)
	}
	if traced.PackageCoverage() <= 0 {
		t.Error("no execution reached trace code")
	}
	loops := 0
	for _, tr := range res.Traces {
		if tr.Blocks < 2 {
			t.Errorf("trace %s has %d blocks", tr.Fn.Name, tr.Blocks)
		}
		if tr.Loops {
			loops++
		}
	}
	// Whether any trace closes its loop depends on every branch in the
	// loop body being biased past the follow threshold — gzip's unbiased
	// match-finding branch ends its traces early, which is precisely the
	// trace-scope weakness §2 argues. Loop closure is therefore reported,
	// not required.
	t.Logf("gzip traces: %d traces (%d looping), coverage %.1f%%, growth %.1f%%",
		len(res.Traces), loops, traced.PackageCoverage()*100, res.CodeGrowth()*100)
}

// The paper's scope argument: phase-wide packages should capture more
// execution than dominant-path traces formed from the same profile.
func TestPackagesBeatTracesOnCoverage(t *testing.T) {
	for _, bench := range []string{"m88ksim", "perl"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			_, _, traced, eq := tracePipeline(t, bench)
			if !eq {
				t.Fatal("traced program diverged")
			}

			b, _ := workload.ByName(bench)
			in := b.Inputs[0]
			in.Scale = 1
			out, err := core.Run(core.ScaledConfig(), cpu.DefaultConfig(), b.Build(in))
			if err != nil {
				t.Fatal(err)
			}
			ev, err := out.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: trace coverage %.1f%% vs package coverage %.1f%%",
				bench, traced.PackageCoverage()*100, ev.Coverage*100)
			if ev.Coverage <= traced.PackageCoverage() {
				t.Errorf("packages (%.1f%%) should out-cover traces (%.1f%%)",
					ev.Coverage*100, traced.PackageCoverage()*100)
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	b, _ := workload.ByName("li")
	in := b.Inputs[0]
	p := b.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	// Empty phase DB: nothing to trace.
	pa, err := core.ProfileStage(core.ScaledConfig(), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := pa.DB()
	db.Phases = nil
	if _, err := Build(DefaultConfig(), p, img, db); err == nil {
		t.Error("empty profile should fail")
	}
}

// A hand-built loop whose body is fully biased must close into a looping
// trace, and an inlined call inside it must materialize a return address.
func TestLoopTraceClosesAndInlinesCalls(t *testing.T) {
	src := `
.func tick
  addi r5, r5, 1
  ret

.func main
.main
  li r1, 0
  li r2, 5000
loop:
  ld r3, 8(r0)
  bne r3, r0, rare
  call tick
  addi r1, r1, 1
body:
  blt r1, r2, loop
  halt
rare:
  addi r6, r6, 1
  jmp body
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Clone()
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	pa, err := core.ProfileStage(core.ScaledConfig(), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := pa.DB()
	res, err := Build(DefaultConfig(), p, img, db)
	if err != nil {
		t.Fatal(err)
	}
	var looping *Trace
	for _, tr := range res.Traces {
		if tr.Loops {
			looping = tr
		}
	}
	if looping == nil {
		t.Fatal("fully biased loop did not close a trace")
	}
	la := 0
	for _, blk := range looping.Fn.Blocks {
		for _, in := range blk.Insts {
			if in.Op == isa.LA && in.Rd == isa.RRA {
				la++
			}
		}
	}
	if la == 0 {
		t.Error("inlined call did not materialize a return address")
	}
	// Functional equivalence of the traced program.
	baseImg, _ := base.Linearize()
	tracedImg, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	mb := cpu.NewMachine(baseImg)
	if err := mb.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	mt := cpu.NewMachine(tracedImg)
	if err := mt.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	// RRA holds a code address and legitimately differs between the two
	// images; every data register must match.
	for r := 0; r < int(isa.RRA); r++ {
		if mb.IntRegs[r] != mt.IntRegs[r] {
			t.Fatalf("looping trace changed r%d: %d vs %d", r, mb.IntRegs[r], mt.IntRegs[r])
		}
	}
	// The trace must actually capture the bulk of execution.
	stats, _, err := cpu.RunTimed(cpu.DefaultConfig(), tracedImg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PackageCoverage() < 0.5 {
		t.Errorf("looping trace coverage %.1f%%, want > 50%%", stats.PackageCoverage()*100)
	}
}
