package cpu

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// runReference is the step loop every timed engine must match: the
// functional interpreter with Timing.Observe on each retired instruction,
// the loop the profiling pass runs.
func runReference(cfg Config, img *prog.Image) (TimingStats, *Machine, error) {
	m := NewMachine(img)
	t := NewTiming(cfg, img)
	if err := m.Run(0, t.Observe); err != nil {
		return TimingStats{}, m, err
	}
	return t.Finish(), m, nil
}

func timedPair(t *testing.T, img *prog.Image) (on, off TimingStats, bc *BlockCache) {
	t.Helper()
	sOff, mOff, err := runReference(DefaultConfig(), img)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	bc = NewBlockCache(img)
	sOn, mOn, err := RunTimedCached(DefaultConfig(), img, 0, bc)
	if err != nil {
		t.Fatalf("cached RunTimed: %v", err)
	}
	hOn, cOn := mOn.DataHash()
	hOff, cOff := mOff.DataHash()
	if hOn != hOff || cOn != cOff {
		t.Errorf("DataHash diverged: cache on (%#x, %d) vs off (%#x, %d)", hOn, cOn, hOff, cOff)
	}
	if mOn.InstCount != mOff.InstCount {
		t.Errorf("InstCount diverged: cache on %d vs off %d", mOn.InstCount, mOff.InstCount)
	}
	return sOn, sOff, bc
}

// TestBlockCacheEquivalence is the bit-identity gate for the block-
// structured timed path: for every workload input at scale 1, TimingStats
// and the functional data hash must match the step-loop reference exactly
// — not approximately.
func TestBlockCacheEquivalence(t *testing.T) {
	for _, bench := range workload.Ordered() {
		for _, in := range bench.Inputs {
			in.Scale = 1
			t.Run(bench.Name+"/"+in.Name, func(t *testing.T) {
				img, err := bench.Build(in).Linearize()
				if err != nil {
					t.Fatalf("linearize: %v", err)
				}
				sOn, sOff, bc := timedPair(t, img)
				if sOn != sOff {
					t.Errorf("TimingStats diverged:\n  cache on:  %+v\n  cache off: %+v", sOn, sOff)
				}
				if bc.Stats.Misses == 0 {
					t.Error("block cache decoded no blocks")
				}
				if bc.Stats.Hits+bc.Stats.Chained == 0 {
					t.Error("block cache never re-dispatched a decoded block")
				}
			})
		}
	}
}

// TestBlockCacheReuse runs the same image twice through one cache: the
// second run must decode nothing new and still be bit-identical.
func TestBlockCacheReuse(t *testing.T) {
	bench := workload.Ordered()[0]
	in := bench.Inputs[0]
	in.Scale = 1
	img, err := bench.Build(in).Linearize()
	if err != nil {
		t.Fatalf("linearize: %v", err)
	}
	bc := NewBlockCache(img)
	s1, _, err := RunTimedCached(DefaultConfig(), img, 0, bc)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	misses := bc.Stats.Misses
	s2, _, err := RunTimedCached(DefaultConfig(), img, 0, bc)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if s1 != s2 {
		t.Errorf("repeat run diverged:\n  first:  %+v\n  second: %+v", s1, s2)
	}
	if bc.Stats.Misses != misses {
		t.Errorf("second run decoded %d new blocks, want 0", bc.Stats.Misses-misses)
	}
	if bc.Stats.Evicted != 0 {
		t.Errorf("re-binding to the same image evicted %d blocks, want 0", bc.Stats.Evicted)
	}
}

// TestBlockCacheInvalidateOnInstall checks the invalidation rule: binding
// a cache to a different image evicts every decoded block, and the run on
// the new image is still bit-identical to the step-loop reference.
func TestBlockCacheInvalidateOnInstall(t *testing.T) {
	benches := workload.Ordered()
	inA := benches[0].Inputs[0]
	inA.Scale = 1
	imgA, err := benches[0].Build(inA).Linearize()
	if err != nil {
		t.Fatalf("linearize A: %v", err)
	}
	inB := benches[1].Inputs[0]
	inB.Scale = 1
	imgB, err := benches[1].Build(inB).Linearize()
	if err != nil {
		t.Fatalf("linearize B: %v", err)
	}

	bc := NewBlockCache(imgA)
	if _, _, err := RunTimedCached(DefaultConfig(), imgA, 0, bc); err != nil {
		t.Fatalf("run A: %v", err)
	}
	decoded := bc.Len()
	if decoded == 0 {
		t.Fatal("no blocks decoded for image A")
	}

	sOn, _, err := RunTimedCached(DefaultConfig(), imgB, 0, bc)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if got := bc.Stats.Evicted; got != uint64(decoded) {
		t.Errorf("installing image B evicted %d blocks, want %d", got, decoded)
	}
	sOff, _, err := runReference(DefaultConfig(), imgB)
	if err != nil {
		t.Fatalf("reference run B: %v", err)
	}
	if sOn != sOff {
		t.Errorf("post-invalidation stats diverged:\n  cache on:  %+v\n  cache off: %+v", sOn, sOff)
	}
}

// TestBlockCacheConcurrentRuns exercises concurrent timed runs over one
// shared image, each with a private cache — the shape report.RunSuite
// produces under -j N. Run under -race, this asserts that neither decode
// nor dispatch mutates the shared image.
func TestBlockCacheConcurrentRuns(t *testing.T) {
	bench := workload.Ordered()[0]
	in := bench.Inputs[0]
	in.Scale = 1
	img, err := bench.Build(in).Linearize()
	if err != nil {
		t.Fatalf("linearize: %v", err)
	}
	const workers = 4
	var wg sync.WaitGroup
	stats := make([]TimingStats, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], _, errs[i] = RunTimedCached(DefaultConfig(), img, 0, NewBlockCache(img))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if stats[i] != stats[0] {
			t.Errorf("worker %d stats diverged from worker 0", i)
		}
	}
}

// dispatchBound is the most instructions one dispatch through bc can
// retire: its longest decoded block or live trace, or the trace cap once
// a trace has been demoted out of the cache.
func dispatchBound(bc *BlockCache) uint64 {
	n := 0
	if bc.SB.Demoted > 0 {
		n = maxSuperblockSlots
	}
	for _, b := range bc.blocks {
		if b != nil {
			n = max(n, len(b.insts))
			if b.sb != nil {
				n = max(n, len(b.sb.slots))
			}
		}
	}
	return uint64(n)
}

// TestBlockEngineLimit: on tier 0 and on tier 1, a run that reaches its
// instruction limit before halting ends with a *LimitError carrying the
// step loop's text, having retired at least the limit and at most one
// dispatch past it. The spin program never halts and its loop is promoted
// into a looping superblock, so on tier 1 only the trace's loop-back check
// can stop it. A limit equal to a run's full count does not fail.
func TestBlockEngineLimit(t *testing.T) {
	spin := mustAssemble(t, `
.func main
.main
  li r1, 0
loop:
  addi r1, r1, 1
  blt r1, r0, skip
  addi r2, r2, 1
skip:
  jmp loop
`)
	bench := workload.Ordered()[0]
	in := bench.Inputs[0]
	in.Scale = 1
	wl, err := bench.Build(in).Linearize()
	if err != nil {
		t.Fatalf("linearize: %v", err)
	}
	_, full, err := RunTimed(DefaultConfig(), wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	tier0 := DefaultConfig()
	tier0.DisableSuperblocks = true
	for _, e := range []struct {
		name string
		cfg  Config
	}{{"tier0", tier0}, {"tier1", DefaultConfig()}} {
		for _, c := range []struct {
			name  string
			img   *prog.Image
			limit uint64
		}{{"spin", spin, 1000}, {"spin", spin, 1 << 20}, {bench.Name, wl, 1000}, {bench.Name, wl, full.InstCount / 2}} {
			bc := NewBlockCache(c.img)
			_, m, err := RunTimedCached(e.cfg, c.img, c.limit, bc)
			var le *LimitError
			if !errors.As(err, &le) || !errors.Is(err, ErrInstLimit) {
				t.Fatalf("%s/%s limit %d: want a limit error, got %v", e.name, c.name, c.limit, err)
			}
			if want := fmt.Sprintf("cpu: instruction limit %d reached at pc %d", c.limit, m.PC); err.Error() != want || le.Limit != c.limit || le.PC != m.PC {
				t.Errorf("%s/%s: error %q (%+v), want %q", e.name, c.name, err, *le, want)
			}
			if d := dispatchBound(bc); m.InstCount < c.limit || m.InstCount > c.limit+d {
				t.Errorf("%s/%s: retired %d insts, want %d..%d", e.name, c.name, m.InstCount, c.limit, c.limit+d)
			}
			if c.img == spin && e.name == "tier1" && bc.SB.Promoted == 0 {
				t.Errorf("%s: the spin loop was never promoted", e.name)
			}
		}
		st, m, err := RunTimed(e.cfg, wl, full.InstCount)
		if err != nil || m.InstCount != full.InstCount {
			t.Errorf("%s: a limit of exactly the run's %d insts: %v after %d", e.name, full.InstCount, err, m.InstCount)
		}
		if ref, _, _ := RunTimed(e.cfg, wl, 0); st != ref {
			t.Errorf("%s: limited stats diverged:\n  limited:   %+v\n  unlimited: %+v", e.name, st, ref)
		}
	}
}

// TestBranchHookSeesEveryCondBranch: on both tiers — superblocks and
// tier 0 only — the hook fires once per retired
// conditional branch, at a conditional-branch PC, with a strictly rising
// retired-instruction count.
func TestBranchHookSeesEveryCondBranch(t *testing.T) {
	tier0 := DefaultConfig()
	tier0.DisableSuperblocks = true
	for _, bench := range workload.Ordered()[:4] {
		in := bench.Inputs[0]
		in.Scale = 1
		img, err := bench.Build(in).Linearize()
		if err != nil {
			t.Fatalf("linearize: %v", err)
		}
		for _, e := range []struct {
			name string
			cfg  Config
		}{{"superblocks", DefaultConfig()}, {"blocks", tier0}} {
			var calls, last uint64
			hook := func(pc int64, taken bool, insts uint64) {
				calls++
				if !img.Code[pc].Op.IsCondBranch() {
					t.Fatalf("%s/%s: hook at pc %d, a %v", bench.Name, e.name, pc, img.Code[pc].Op)
				}
				if insts <= last {
					t.Fatalf("%s/%s: hook count %d after %d", bench.Name, e.name, insts, last)
				}
				last = insts
			}
			st, m, err := RunTimedHooked(e.cfg, img, 0, nil, hook)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, e.name, err)
			}
			if calls != st.CondBranches || calls == 0 {
				t.Errorf("%s/%s: %d hook calls, %d conditional branches", bench.Name, e.name, calls, st.CondBranches)
			}
			if last > m.InstCount {
				t.Errorf("%s/%s: last hook count %d past %d retired", bench.Name, e.name, last, m.InstCount)
			}
		}
	}
}

// TestBlockCacheFaultState: a faulting run must park PC on the faulting
// instruction and count only retired instructions, matching the step-loop
// reference's partial state.
func TestBlockCacheFaultState(t *testing.T) {
	src := `
.func main
.main
  li r1, 3
  ld r2, 0(r1)
  halt
`
	img := mustAssemble(t, src)
	_, mOff, errOff := runReference(DefaultConfig(), img)
	_, mOn, errOn := RunTimed(DefaultConfig(), img, 0)
	if errOff == nil || errOn == nil {
		t.Fatalf("want faults on both paths, got off=%v on=%v", errOff, errOn)
	}
	if errOn.Error() != errOff.Error() {
		t.Errorf("fault text diverged:\n  cache on:  %v\n  cache off: %v", errOn, errOff)
	}
	if mOn.PC != mOff.PC || mOn.InstCount != mOff.InstCount {
		t.Errorf("fault state diverged: cache on (pc %d, %d insts) vs off (pc %d, %d insts)",
			mOn.PC, mOn.InstCount, mOff.PC, mOff.InstCount)
	}
}

// TestSameTimedImage pins the key of the suite's cross-variant timed
// memo: a fresh relinearized clone compares equal (and times identically),
// and a change to any one thing the timed engine reads — one instruction,
// the entry point, one data word, one block's package mark — compares
// unequal.
func TestSameTimedImage(t *testing.T) {
	bench, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	p := bench.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Prog.Data) == 0 {
		t.Fatal("workload has no data segment to mutate")
	}
	fresh := func() *prog.Image {
		t.Helper()
		c, err := p.Clone().Linearize()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	same := fresh()
	if !SameTimedImage(img, same) || !SameTimedImage(same, img) {
		t.Fatal("a relinearized clone does not compare equal")
	}
	a, _, err := RunTimed(DefaultConfig(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunTimed(DefaultConfig(), same, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equal images timed differently:\n  %+v\n  %+v", a, b)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*prog.Image)
	}{
		{"instruction", func(c *prog.Image) { c.Code[len(c.Code)/2].Imm++ }},
		{"entry", func(c *prog.Image) { c.Entry++ }},
		{"data", func(c *prog.Image) { c.Prog.Data[len(c.Prog.Data)-1]++ }},
		{"package mark", func(c *prog.Image) {
			blk := c.AddrBlock[c.Entry]
			blk.Fn.IsPackage = !blk.Fn.IsPackage
		}},
	} {
		c := fresh()
		tc.mutate(c)
		if SameTimedImage(img, c) || SameTimedImage(c, img) {
			t.Errorf("%s: a changed image compares equal", tc.name)
		}
	}
}
