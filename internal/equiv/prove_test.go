package equiv_test

import (
	"sync"
	"testing"

	"repro/internal/equiv"
	"repro/internal/isa"
	"repro/internal/opt"
	"repro/internal/prog"
)

// TestProveClean proves the unmutated pass stack equivalent on every
// package of the corpus workload.
func TestProveClean(t *testing.T) {
	for _, tg := range buildTargets(t) {
		cert, err := equiv.Prove(tg.snap, equiv.Config{})
		if err != nil {
			t.Fatalf("%s: clean pass stack refuted: %v", tg.snap.Package(), err)
		}
		if !cert.Equivalent {
			t.Fatalf("%s: %s", tg.snap.Package(), cert.Verdict())
		}
	}
}

// TestProveDeterministic locks proof reproducibility: the same snapshot
// proved twice yields identical certificates (path counts, term counts,
// budget outcome) — a prerequisite for byte-identical pipeline traces.
func TestProveDeterministic(t *testing.T) {
	for _, tg := range buildTargets(t) {
		a, err := equiv.Prove(tg.snap, equiv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := equiv.Prove(tg.snap, equiv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if a.PathsProved != b.PathsProved || a.PathsFuzzed != b.PathsFuzzed ||
			a.Terms != b.Terms || a.MaxPathBlocks != b.MaxPathBlocks ||
			a.BudgetExceeded != b.BudgetExceeded {
			t.Fatalf("%s: nondeterministic proof: %+v vs %+v", tg.snap.Package(), a, b)
		}
	}
}

// TestProveConcurrent drives independent proofs from many goroutines at
// once — the race detector checks Prove shares no hidden mutable state
// across snapshots (each pipeline worker proves its own packages).
func TestProveConcurrent(t *testing.T) {
	targets := buildTargets(t)
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(targets)*rounds)
	for r := 0; r < rounds; r++ {
		for _, tg := range targets {
			tg := tg
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := equiv.Prove(tg.snap, equiv.Config{}); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestProveBudgetFallback forces a tiny path budget and checks the
// prover degrades to differential fuzzing instead of rejecting.
func TestProveBudgetFallback(t *testing.T) {
	targets := buildTargets(t)
	cert, err := equiv.Prove(targets[0].snap, equiv.Config{MaxPaths: 1, FuzzTrials: 4})
	if err != nil {
		t.Fatalf("budget exhaustion must fall back to fuzzing, not reject: %v", err)
	}
	if !cert.BudgetExceeded {
		t.Skip("package proved within one path; budget fallback not exercised")
	}
	if cert.PathsFuzzed == 0 {
		t.Error("budget exceeded but no differential trials recorded")
	}
	if !cert.Equivalent {
		t.Errorf("clean package rejected under budget fallback: %s", cert.Verdict())
	}
}

// TestProveMergedChain proves a straight-line function that MergeBlocks
// fuses into a single block. The reference replay walks all five blocks
// of the snapshot, more than the optimized function has, and that alone
// is no divergence.
func TestProveMergedChain(t *testing.T) {
	bd := prog.NewBuilder()
	fn := bd.Func("chain")
	bd.Main()
	for i := int64(1); i < 5; i++ {
		next := bd.NewBlock()
		bd.OpI(isa.ADDI, 5, 5, i)
		bd.Goto(next)
		bd.SetBlock(next)
	}
	bd.St(5, 6, 0)
	bd.Halt()
	snap := equiv.Capture(bd.P, fn, nil)
	opt.MergeBlocks(bd.P, fn)
	if len(fn.Blocks) != 1 {
		t.Fatalf("MergeBlocks left %d blocks, want 1", len(fn.Blocks))
	}
	cert, err := equiv.Prove(snap, equiv.Config{})
	if err != nil {
		t.Fatalf("merged chain refuted: %v", err)
	}
	if cert.PathsProved != 1 {
		t.Errorf("%s: want exactly one proved path", cert.Verdict())
	}
}
