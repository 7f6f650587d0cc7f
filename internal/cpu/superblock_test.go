package cpu

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/prog"
)

// timedTriple runs img through the step-loop reference (runReference),
// tier 0 (block cache, superblocks off) and tier 1 (superblocks on,
// promotion threshold thresh), and requires bit-identical TimingStats,
// machine state, and data hash across them. It returns the tier-1 cache
// for promotion-level assertions.
func timedTriple(t *testing.T, img *prog.Image, thresh int) *BlockCache {
	t.Helper()

	sRef, mRef, err := runReference(DefaultConfig(), img)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	t0Cfg := DefaultConfig()
	t0Cfg.DisableSuperblocks = true
	sT0, mT0, err := RunTimed(t0Cfg, img, 0)
	if err != nil {
		t.Fatalf("tier-0 RunTimed: %v", err)
	}

	t1Cfg := DefaultConfig()
	t1Cfg.SuperblockThreshold = thresh
	bc := NewBlockCache(img)
	sT1, mT1, err := RunTimedCached(t1Cfg, img, 0, bc)
	if err != nil {
		t.Fatalf("tier-1 RunTimed: %v", err)
	}

	if sT0 != sRef {
		t.Errorf("tier-0 TimingStats diverged from reference:\n  tier 0: %+v\n  reference: %+v", sT0, sRef)
	}
	if sT1 != sRef {
		t.Errorf("tier-1 TimingStats diverged from reference:\n  tier 1: %+v\n  reference: %+v", sT1, sRef)
	}
	for _, pair := range []struct {
		name string
		m    *Machine
	}{{"tier 0", mT0}, {"tier 1", mT1}} {
		if pair.m.InstCount != mRef.InstCount {
			t.Errorf("%s InstCount %d, reference %d", pair.name, pair.m.InstCount, mRef.InstCount)
		}
		if pair.m.IntRegs != mRef.IntRegs {
			t.Errorf("%s integer register file diverged from reference", pair.name)
		}
		if pair.m.FPRegs != mRef.FPRegs {
			t.Errorf("%s FP register file diverged from reference", pair.name)
		}
		h, n := pair.m.DataHash()
		hl, nl := mRef.DataHash()
		if h != hl || n != nl {
			t.Errorf("%s DataHash %#x/%d, reference %#x/%d", pair.name, h, n, hl, nl)
		}
	}
	return bc
}

// genProgram builds a random but always-terminating looped workload: a
// counted loop whose body mixes ALU ops, loads and stores against the
// data segment, and data-dependent forward branches (the skips become
// tier-1 guards). r1 holds the data base and r2 the loop counter; body
// destinations stay in r3..r12 so the loop structure survives anything
// the generator emits.
func genProgram(next func() uint64) string {
	var b strings.Builder
	b.WriteString(".data")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, " %d", int64(next()%1000))
	}
	b.WriteString("\n.func main\n.main\n")
	fmt.Fprintf(&b, "  li r1, %d\n", prog.DataBase)
	fmt.Fprintf(&b, "  li r2, %d\n", 80+next()%120)
	b.WriteString("  li r3, 0\nloop:\n")

	reg := func() int { return 3 + int(next()%10) } // r3..r12
	n := 8 + int(next()%12)
	skips := 0
	for i := 0; i < n; i++ {
		switch next() % 8 {
		case 0:
			fmt.Fprintf(&b, "  add r%d, r%d, r%d\n", reg(), reg(), reg())
		case 1:
			fmt.Fprintf(&b, "  addi r%d, r%d, %d\n", reg(), reg(), int64(next()%64))
		case 2:
			fmt.Fprintf(&b, "  xor r%d, r%d, r%d\n", reg(), reg(), reg())
		case 3:
			fmt.Fprintf(&b, "  muli r%d, r%d, %d\n", reg(), reg(), 1+int64(next()%7))
		case 4:
			fmt.Fprintf(&b, "  ld r%d, %d(r1)\n", reg(), 8*(next()%64))
		case 5:
			fmt.Fprintf(&b, "  st r%d, %d(r1)\n", reg(), 8*(next()%64))
		case 6:
			fmt.Fprintf(&b, "  slt r%d, r%d, r%d\n", reg(), reg(), reg())
		case 7:
			// Data-dependent forward skip: a guard once promoted.
			fmt.Fprintf(&b, "  beq r%d, r0, skip%d\n", reg(), skips)
			fmt.Fprintf(&b, "  addi r%d, r%d, 1\n", reg(), reg())
			if next()&1 == 0 {
				fmt.Fprintf(&b, "  st r%d, %d(r1)\n", reg(), 8*(next()%64))
			}
			fmt.Fprintf(&b, "skip%d:\n", skips)
			skips++
		}
	}
	b.WriteString("  addi r2, r2, -1\n  bne r2, r0, loop\n  halt\n")
	return b.String()
}

// TestSuperblockEquivalenceRandom is the randomized property test for
// the two-tier engine: for a batch of generated looped workloads, tier 1
// must match tier 0 and the step-loop reference bit-for-bit, while actually
// promoting traces (the low threshold guarantees the tier-1 path runs).
func TestSuperblockEquivalenceRandom(t *testing.T) {
	state := uint64(0x243f6a8885a308d3)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	promoted := uint64(0)
	for i := 0; i < 25; i++ {
		src := genProgram(next)
		t.Run(fmt.Sprintf("prog%02d", i), func(t *testing.T) {
			img := mustAssemble(t, src)
			bc := timedTriple(t, img, 2)
			promoted += bc.SB.Promoted
			if bc.SB.ChainedInsts == 0 && bc.SB.Promoted > 0 {
				t.Error("promoted traces retired no instructions")
			}
		})
	}
	if promoted == 0 {
		t.Error("no generated program promoted a superblock")
	}
}

// TestSuperblockPromotion checks the promotion path directly: a hot
// counted loop must cross the threshold, build a trace, and retire the
// bulk of its instructions inside it.
func TestSuperblockPromotion(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 2000
loop:
  addi r1, r1, 1
  add r3, r3, r1
  bne r1, r2, loop
  halt
`)
	bc := timedTriple(t, img, 4)
	if bc.SB.Promoted == 0 {
		t.Fatal("hot loop never promoted")
	}
	if bc.SB.ChainedInsts == 0 {
		t.Fatal("promoted trace retired no instructions")
	}
	// The loop runs 2000 iterations and promotes after a handful; the
	// trace should own nearly all retired instructions.
	if total := bc.SB.ChainedInsts; total < 5000 {
		t.Errorf("trace retired only %d insts; promotion came too late", total)
	}
}

// TestSuperblockSideExitDemotion flips a branch bias after promotion:
// the trace stitched on the early direction must side-exit at its first
// guard often enough to be demoted, and the run must stay bit-identical
// to the other tiers throughout.
func TestSuperblockSideExitDemotion(t *testing.T) {
	// Phase 1 (r4=0, 200 iterations): the inner branch jumps to stay, so
	// the trace is stitched along the taken edge. Phase 2 (r4=1, 600
	// iterations): it falls through instead, missing the stitched guard
	// on every pass. The discarded load on the fall path pins that
	// block to tier 0 (specialization bails on it), so no competing
	// trace can shadow the side-exiting one — the old trace keeps
	// getting dispatched and missing until demotion fires.
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 200
  li r4, 0
phase:
loop:
  beq r4, r0, stay
  addi r5, r5, 7
  ld r0, 0(r6)
stay:
  addi r1, r1, 1
  bne r1, r2, loop
  beq r4, r0, flip
  halt
flip:
  li r4, 1
  li r1, 0
  li r2, 600
  jmp phase
`)
	bc := timedTriple(t, img, 4)
	if bc.SB.Promoted == 0 {
		t.Fatal("loop never promoted")
	}
	if bc.SB.SideExits == 0 {
		t.Fatal("flipped branch produced no side exits")
	}
	if bc.SB.Demoted == 0 {
		t.Error("persistently side-exiting trace was never demoted")
	}
}

// pkgLoopSrc is a hot loop in a package function, three blocks per
// pass. Every eighth pass takes the rare edge, so the promoted trace's
// first guard side-exits; on the pass where r2 equals fault, the join
// block's load turns unaligned inside the trace (fault 0 never fires).
func pkgLoopSrc(fault int) string {
	return fmt.Sprintf(`
.data 5 6 7 8
.func main
.main
  call kern
  halt
.func kern
.package
  li r1, %d
  li r2, 300
  li r10, %d
loop:
  ld r4, 0(r1)
  add r3, r3, r4
  andi r5, r2, 7
  beq r5, r0, rare
  addi r3, r3, 1
  jmp join
rare:
  addi r3, r3, 5
join:
  seq r8, r2, r10
  muli r8, r8, 3
  add r9, r1, r8
  ld r6, 8(r9)
  st r3, 16(r1)
  addi r2, r2, -1
  bne r2, r0, loop
  ret
`, prog.DataBase, fault)
}

// TestSuperblockPackageExitsAndFaults drives the trace exit and fault
// paths through package code: side exits must credit the package slots
// of exactly the blocks that completed, and a fault inside a promoted
// trace must leave the machine and the block cache where tier 0 and the
// step loop leave them.
func TestSuperblockPackageExitsAndFaults(t *testing.T) {
	bc := timedTriple(t, mustAssemble(t, pkgLoopSrc(0)), 2)
	if bc.SB.Promoted == 0 || bc.SB.SideExits == 0 {
		t.Fatalf("clean loop: %+v, want promotions and side exits", bc.SB)
	}

	img := mustAssemble(t, pkgLoopSrc(100))
	_, mRef, errRef := runReference(DefaultConfig(), img)
	t0Cfg := DefaultConfig()
	t0Cfg.DisableSuperblocks = true
	bc0 := NewBlockCache(img)
	_, mT0, errT0 := RunTimedCached(t0Cfg, img, 0, bc0)
	t1Cfg := DefaultConfig()
	t1Cfg.SuperblockThreshold = 2
	bc1 := NewBlockCache(img)
	_, mT1, errT1 := RunTimedCached(t1Cfg, img, 0, bc1)
	if errRef == nil || errT0 == nil || errT1 == nil {
		t.Fatalf("want faults on every path, got reference %v, tier 0 %v, tier 1 %v", errRef, errT0, errT1)
	}
	if bc1.SB.Promoted == 0 || bc1.SB.SideExits == 0 {
		t.Fatalf("faulting loop: %+v, want promotions and side exits", bc1.SB)
	}
	if bc1.Stats != bc0.Stats {
		t.Errorf("tier-1 BlockCacheStats %+v, tier 0 %+v", bc1.Stats, bc0.Stats)
	}
	for _, run := range []struct {
		name string
		m    *Machine
		err  error
	}{{"tier 0", mT0, errT0}, {"tier 1", mT1, errT1}} {
		if run.err.Error() != errRef.Error() {
			t.Errorf("%s fault %q, reference %q", run.name, run.err, errRef)
		}
		if run.m.PC != mRef.PC || run.m.InstCount != mRef.InstCount {
			t.Errorf("%s fault state pc %d, %d insts; reference pc %d, %d insts",
				run.name, run.m.PC, run.m.InstCount, mRef.PC, mRef.InstCount)
		}
		if run.m.IntRegs != mRef.IntRegs || run.m.FPRegs != mRef.FPRegs {
			t.Errorf("%s register files diverged from reference", run.name)
		}
		h, n := run.m.DataHash()
		hr, nr := mRef.DataHash()
		if h != hr || n != nr {
			t.Errorf("%s DataHash %#x/%d, reference %#x/%d", run.name, h, n, hr, nr)
		}
	}
}

// TestSuperblockInvalidateOnBind checks the invalidation-on-install
// rule: binding the cache to a new image evicts every block and the
// traces hanging off them; re-binding the same image keeps both.
func TestSuperblockInvalidateOnBind(t *testing.T) {
	src := `
.func main
.main
  li r1, 0
  li r2, 500
loop:
  addi r1, r1, 1
  bne r1, r2, loop
  halt
`
	img := mustAssemble(t, src)
	img2 := mustAssemble(t, src)

	cfg := DefaultConfig()
	cfg.SuperblockThreshold = 4
	bc := NewBlockCache(img)
	if _, _, err := RunTimedCached(cfg, img, 0, bc); err != nil {
		t.Fatal(err)
	}
	if bc.SB.Promoted == 0 {
		t.Fatal("warm-up run promoted nothing")
	}
	traces := 0
	for _, b := range bc.blocks {
		if b != nil && b.sb != nil {
			traces++
		}
	}
	if traces == 0 {
		t.Fatal("no decoded block holds a trace")
	}
	decoded := bc.Len()

	// Same image: everything survives.
	bc.Bind(img)
	if bc.Len() != decoded {
		t.Errorf("re-bind to same image evicted blocks: %d -> %d", decoded, bc.Len())
	}

	// New image: blocks and their traces are gone, counted as evictions.
	bc.Bind(img2)
	if bc.Len() != 0 {
		t.Errorf("bind to new image left %d blocks decoded", bc.Len())
	}
	if bc.Stats.Evicted == 0 {
		t.Error("invalidation counted no evictions")
	}
	// The rebound cache must still run correctly and re-promote.
	before := bc.SB.Promoted
	if _, _, err := RunTimedCached(cfg, img2, 0, bc); err != nil {
		t.Fatal(err)
	}
	if bc.SB.Promoted == before {
		t.Error("rebound cache never re-promoted")
	}
}

// TestSuperblockConfigGates checks both off switches: DisableSuperblocks
// and an unreachable threshold must leave the cache at tier 0 while
// remaining bit-identical (covered for the disabled case by timedTriple's
// tier-0 leg; asserted directly here).
func TestSuperblockConfigGates(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 300
loop:
  addi r1, r1, 1
  bne r1, r2, loop
  halt
`)
	cfg := DefaultConfig()
	cfg.DisableSuperblocks = true
	bc := NewBlockCache(img)
	if _, _, err := RunTimedCached(cfg, img, 0, bc); err != nil {
		t.Fatal(err)
	}
	if bc.SB.Promoted != 0 {
		t.Errorf("DisableSuperblocks still promoted %d traces", bc.SB.Promoted)
	}

	cfg = DefaultConfig()
	cfg.SuperblockThreshold = 1 << 30
	bc = NewBlockCache(img)
	if _, _, err := RunTimedCached(cfg, img, 0, bc); err != nil {
		t.Fatal(err)
	}
	if bc.SB.Promoted != 0 {
		t.Errorf("unreachable threshold still promoted %d traces", bc.SB.Promoted)
	}
}

// TestSuperblockConcurrentRuns exercises the documented concurrency
// contract under the race detector: one image, per-goroutine caches.
func TestSuperblockConcurrentRuns(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 400
loop:
  addi r1, r1, 1
  add r3, r3, r1
  bne r1, r2, loop
  halt
`)
	cfg := DefaultConfig()
	cfg.SuperblockThreshold = 2
	var wg sync.WaitGroup
	stats := make([]TimingStats, 4)
	errs := make([]error, 4)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], _, errs[i] = RunTimedCached(cfg, img, 0, NewBlockCache(img))
		}(i)
	}
	wg.Wait()
	for i := range stats {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if stats[i] != stats[0] {
			t.Errorf("run %d stats diverged: %+v vs %+v", i, stats[i], stats[0])
		}
	}
}
