package equiv_test

import (
	"errors"
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
// proved twice yields identical certificates (path, cut and term counts)
// — a prerequisite for byte-identical pipeline traces.
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
		if *a != *b {
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

// TestProveBudgetRefuses forces a one-path budget on a package with
// more paths and checks the proof is refused with a "budget"
// counterexample after proving exactly the first path.
func TestProveBudgetRefuses(t *testing.T) {
	for _, tg := range buildTargets(t) {
		full, err := equiv.Prove(tg.snap, equiv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if full.PathsProved < 2 {
			continue
		}
		cert, err := equiv.Prove(tg.snap, equiv.Config{MaxPaths: 1})
		if !errors.Is(err, equiv.ErrNotEquivalent) {
			t.Fatalf("%s: a proof past its budget must be refused, got %v", tg.snap.Package(), err)
		}
		if cert.Equivalent || cert.PathsProved != 1 {
			t.Errorf("%s: want a refusal after one proved path: %s", tg.snap.Package(), cert.Verdict())
		}
		ces := equiv.Counterexamples(err)
		if len(ces) != 1 || ces[0].Kind != "budget" {
			t.Errorf("%s: want one budget counterexample, got %+v", tg.snap.Package(), ces)
		}
		return
	}
	t.Fatal("no package has two or more paths")
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
