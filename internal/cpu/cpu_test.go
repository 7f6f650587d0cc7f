package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
)

func mustAssemble(t *testing.T, src string) *prog.Image {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func run(t *testing.T, src string) *Machine {
	t.Helper()
	m := NewMachine(mustAssemble(t, src))
	if err := m.Run(1_000_000, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestALUOps(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 6
  li r2, 4
  add r3, r1, r2
  sub r4, r1, r2
  mul r5, r1, r2
  div r6, r1, r2
  rem r7, r1, r2
  and r8, r1, r2
  or  r9, r1, r2
  xor r10, r1, r2
  shl r11, r1, r2
  shr r12, r1, r2
  slt r13, r1, r2
  slt r14, r2, r1
  seq r15, r1, r1
  halt
`)
	want := map[int]int64{3: 10, 4: 2, 5: 24, 6: 1, 7: 2, 8: 4, 9: 6, 10: 2,
		11: 96, 12: 0, 13: 0, 14: 1, 15: 1}
	for r, v := range want {
		if m.IntRegs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.IntRegs[r], v)
		}
	}
}

func TestImmediateOps(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 10
  addi r2, r1, -3
  muli r3, r1, 5
  andi r4, r1, 6
  ori r5, r1, 1
  xori r6, r1, 2
  shli r7, r1, 2
  shri r8, r1, 1
  slti r9, r1, 11
  halt
`)
	want := map[int]int64{2: 7, 3: 50, 4: 2, 5: 11, 6: 8, 7: 40, 8: 5, 9: 1}
	for r, v := range want {
		if m.IntRegs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.IntRegs[r], v)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 5
  li r2, 0
  div r3, r1, r2
  rem r4, r1, r2
  halt
`)
	if m.IntRegs[3] != 0 || m.IntRegs[4] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", m.IntRegs[3], m.IntRegs[4])
	}
}

func TestR0IsZero(t *testing.T) {
	m := run(t, `
.func main
.main
  li r0, 77
  add r1, r0, r0
  halt
`)
	if m.IntRegs[0] != 0 || m.IntRegs[1] != 0 {
		t.Error("r0 should stay zero")
	}
}

func TestMemoryAndData(t *testing.T) {
	m := run(t, `
.data 11 22 33
.func main
.main
  li r1, 1048576
  ld r2, 0(r1)
  ld r3, 8(r1)
  ld r4, 16(r1)
  add r5, r2, r3
  st r5, 24(r1)
  ld r6, 24(r1)
  halt
`)
	if m.IntRegs[6] != 33 {
		t.Errorf("stored/loaded = %d, want 33", m.IntRegs[6])
	}
	if m.IntRegs[4] != 33 {
		t.Errorf("data[2] = %d, want 33", m.IntRegs[4])
	}
	h, n := m.DataHash()
	if n != 1 || h == fnv64offset {
		t.Errorf("data hash not updated: %d stores", n)
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 7
  li r2, 2
  fcvtif f1, r1
  fcvtif f2, r2
  fadd f3, f1, f2
  fsub f4, f1, f2
  fmul f5, f1, f2
  fdiv f6, f1, f2
  fslt r3, f2, f1
  fcvtfi r4, f6
  li r10, 1048576
  fst f5, 0(r10)
  fld f7, 0(r10)
  fcvtfi r5, f7
  halt
`)
	if got := m.FPRegs[3-0]; got != 9 { // f3
		t.Errorf("f3 = %v, want 9", got)
	}
	if m.IntRegs[3] != 1 {
		t.Errorf("fslt = %d, want 1", m.IntRegs[3])
	}
	if m.IntRegs[4] != 3 { // 7/2 = 3.5 truncated
		t.Errorf("fcvtfi(3.5) = %d, want 3", m.IntRegs[4])
	}
	if m.IntRegs[5] != 14 {
		t.Errorf("fst/fld round trip = %d, want 14", m.IntRegs[5])
	}
}

func TestFDivByZero(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 3
  fcvtif f1, r1
  fdiv f2, f1, f0
  fcvtfi r2, f2
  halt
`)
	if m.IntRegs[2] != 0 {
		t.Errorf("fdiv by zero = %d, want 0", m.IntRegs[2])
	}
}

func TestBranchesAndLoop(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 0    ; i
  li r2, 10   ; n
  li r3, 0    ; sum
loop:
  bge r1, r2, done
  add r3, r3, r1
  addi r1, r1, 1
  jmp loop
done:
  halt
`)
	if m.IntRegs[3] != 45 {
		t.Errorf("sum = %d, want 45", m.IntRegs[3])
	}
}

func TestCallRetAndRA(t *testing.T) {
	m := run(t, `
.func double
  add r1, r1, r1
  ret
.func main
.main
  li r1, 21
  call double
  halt
`)
	if m.IntRegs[1] != 42 {
		t.Errorf("r1 = %d, want 42", m.IntRegs[1])
	}
}

func TestNestedCallsWithSpill(t *testing.T) {
	m := run(t, `
.func leaf
  addi r1, r1, 1
  ret
.func mid
  addi sp, sp, -8
  st ra, 0(sp)
  call leaf
  call leaf
  ld ra, 0(sp)
  addi sp, sp, 8
  ret
.func main
.main
  li r1, 0
  call mid
  call mid
  halt
`)
	if m.IntRegs[1] != 4 {
		t.Errorf("r1 = %d, want 4", m.IntRegs[1])
	}
}

func TestLAAndIndirectReturn(t *testing.T) {
	// LA materializes a code address into ra; ret then jumps there, the
	// pattern partial inlining uses.
	m := run(t, `
.func main
.main
  li r5, 1
  la ra, after
  jmp body
body:
  addi r5, r5, 10
  ret
after:
  addi r5, r5, 100
  halt
`)
	if m.IntRegs[5] != 111 {
		t.Errorf("r5 = %d, want 111", m.IntRegs[5])
	}
}

func TestHaltStops(t *testing.T) {
	m := run(t, ".func main\n.main\n  halt\n")
	if !m.Halted {
		t.Error("machine should halt")
	}
	if err := m.Step(nil); err == nil {
		t.Error("step on halted machine should fail")
	}
}

func TestRunLimit(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
loop:
  jmp loop
`)
	m := NewMachine(img)
	if err := m.Run(100, nil); err == nil {
		t.Error("infinite loop should hit the limit")
	}
	if m.InstCount != 100 {
		t.Errorf("InstCount = %d, want 100", m.InstCount)
	}
}

func TestUnalignedAccessFaults(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 3
  ld r2, 0(r1)
  halt
`)
	m := NewMachine(img)
	if err := m.Run(0, nil); err == nil {
		t.Error("unaligned load should fault")
	}
}

func TestStepInfo(t *testing.T) {
	img := mustAssemble(t, `
.func main
.main
  li r1, 1
  beq r1, r0, never
  st r1, -8(sp)
  halt
never:
  halt
`)
	m := NewMachine(img)
	var infos []StepInfo
	if err := m.Run(0, func(si *StepInfo) { infos = append(infos, *si) }); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("retired %d instructions, want 4", len(infos))
	}
	branch := infos[1]
	if branch.Inst.Op != isa.BEQ || branch.Taken {
		t.Errorf("branch info wrong: %+v", branch)
	}
	store := infos[2]
	if store.MemAddr != prog.StackBase-8 {
		t.Errorf("store MemAddr = %d", store.MemAddr)
	}
	if infos[0].MemAddr != -1 {
		t.Errorf("non-memory MemAddr = %d, want -1", infos[0].MemAddr)
	}
}

func TestDataHashIgnoresStack(t *testing.T) {
	m := run(t, `
.func main
.main
  li r1, 5
  st r1, -8(sp)
  halt
`)
	if _, n := m.DataHash(); n != 0 {
		t.Errorf("stack store counted in data hash: %d", n)
	}
}

const timingLoop = `
.func main
.main
  li r1, 0
  li r2, 2000
loop:
  bge r1, r2, done
  addi r1, r1, 1
  jmp loop
done:
  halt
`

func TestTimingBasics(t *testing.T) {
	img := mustAssemble(t, timingLoop)
	stats, m, err := RunTimed(DefaultConfig(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Insts != m.InstCount {
		t.Errorf("stats.Insts = %d, machine count %d", stats.Insts, m.InstCount)
	}
	if stats.Cycles == 0 || stats.Cycles > stats.Insts*20 {
		t.Errorf("cycles = %d looks wrong for %d insts", stats.Cycles, stats.Insts)
	}
	if stats.IPC() <= 0 || stats.IPC() > float64(DefaultConfig().IssueWidth) {
		t.Errorf("IPC = %v out of range", stats.IPC())
	}
	if stats.CondBranches != 2001 {
		t.Errorf("cond branches = %d, want 2001", stats.CondBranches)
	}
	// A tight loop should predict almost perfectly after warmup.
	if stats.CondMispredict > 30 {
		t.Errorf("mispredicts = %d, too many for a biased loop", stats.CondMispredict)
	}
}

func TestTimingDependentChainSlowerThanIndependent(t *testing.T) {
	dep := `
.func main
.main
  li r1, 1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  add r1, r1, r1
  halt
`
	indep := `
.func main
.main
  li r1, 1
  add r2, r1, r1
  add r3, r1, r1
  add r4, r1, r1
  add r5, r1, r1
  add r6, r1, r1
  add r7, r1, r1
  add r8, r1, r1
  add r9, r1, r1
  halt
`
	sDep, _, err := RunTimed(DefaultConfig(), mustAssemble(t, dep), 0)
	if err != nil {
		t.Fatal(err)
	}
	sInd, _, err := RunTimed(DefaultConfig(), mustAssemble(t, indep), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sInd.Cycles >= sDep.Cycles {
		t.Errorf("independent chain (%d cycles) should beat dependent chain (%d cycles)",
			sInd.Cycles, sDep.Cycles)
	}
}

func TestTimingLoadLatency(t *testing.T) {
	// A load-use chain should cost more than a pure ALU chain of the same
	// length because of the 3-cycle L1 latency and cold misses.
	loads := `
.data 8 16 24 32
.func main
.main
  li r1, 1048576
  ld r2, 0(r1)
  add r3, r2, r2
  halt
`
	s, _, err := RunTimed(DefaultConfig(), mustAssemble(t, loads), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.L1DAccesses == 0 {
		t.Error("no D-cache accesses recorded")
	}
	if s.L1DMisses == 0 {
		t.Error("cold load should miss")
	}
}

func TestTimingIssueWidthCap(t *testing.T) {
	// 20 independent ALU ops with 5 ALUs cannot finish in fewer than 4
	// issue cycles.
	src := ".func main\n.main\n  li r1, 1\n"
	for i := 0; i < 20; i++ {
		src += "  add r2, r1, r1\n"
	}
	src += "  halt\n"
	s, _, err := RunTimed(DefaultConfig(), mustAssemble(t, src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles < 4 {
		t.Errorf("cycles = %d, ALU limit should force >= 4", s.Cycles)
	}
}

func TestCacheModel(t *testing.T) {
	c := NewCache("t", 64*4*2, 4) // 2 sets, 4 ways
	if hit := c.Access(0); hit {
		t.Error("first access should miss")
	}
	if hit := c.Access(0); !hit {
		t.Error("second access should hit")
	}
	// Fill set 0 (lines 0,2,4,6 map to set 0 with 2 sets).
	c.Access(2 * 64)
	c.Access(4 * 64)
	c.Access(6 * 64)
	c.Access(8 * 64) // evicts LRU (line 0)
	if hit := c.Access(0); hit {
		t.Error("line 0 should have been evicted")
	}
	// Misses: 0, 2, 4, 6, 8 (cold) and 0 again (evicted); hit: 0 once.
	if c.Accesses != 7 || c.Misses != 6 {
		t.Errorf("accesses/misses = %d/%d, want 7/6", c.Accesses, c.Misses)
	}
}

func TestPredictorGshareLearnsPattern(t *testing.T) {
	p := NewPredictor(10, 1024, 32)
	// Alternating pattern is learnable with history.
	correct := 0
	for i := 0; i < 2000; i++ {
		if p.PredictCond(100, i%2 == 0) {
			correct++
		}
	}
	if correct < 1800 {
		t.Errorf("gshare learned alternating pattern only %d/2000", correct)
	}
}

func TestPredictorBTB(t *testing.T) {
	p := NewPredictor(10, 16, 32)
	if p.LookupBTB(5, 100) {
		t.Error("cold BTB should miss")
	}
	if !p.LookupBTB(5, 100) {
		t.Error("warm BTB should hit")
	}
	if p.LookupBTB(5, 200) {
		t.Error("changed target should miss")
	}
	if p.LookupBTB(5+16, 100) {
		t.Error("aliased entry should miss")
	}
}

func TestPredictorRAS(t *testing.T) {
	p := NewPredictor(10, 16, 4)
	p.PushRAS(10)
	p.PushRAS(20)
	if !p.PopRAS(20) || !p.PopRAS(10) {
		t.Error("RAS should predict LIFO returns")
	}
	if p.PopRAS(99) {
		t.Error("empty RAS should miss")
	}
	// Overflow wraps: deepest entries are lost.
	for i := 0; i < 6; i++ {
		p.PushRAS(int64(100 + i))
	}
	for i := 5; i >= 2; i-- {
		if !p.PopRAS(int64(100 + i)) {
			t.Errorf("RAS lost recent entry %d", 100+i)
		}
	}
}

func TestMemorySnapshotAndErrors(t *testing.T) {
	m := NewMemory()
	if err := m.Store(16, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(16); v != 7 {
		t.Error("store/load failed")
	}
	if v, _ := m.Load(1 << 40); v != 0 {
		t.Error("unwritten memory should read 0")
	}
	if _, err := m.Load(-8); err == nil {
		t.Error("negative address should fault")
	}
	if err := m.Store(3, 1); err == nil {
		t.Error("unaligned store should fault")
	}
	snap, err := m.Snapshot(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 || snap[1] != 7 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestTimedMatchesFunctional(t *testing.T) {
	img := mustAssemble(t, timingLoop)
	mFunc := NewMachine(img)
	if err := mFunc.Run(0, nil); err != nil {
		t.Fatal(err)
	}
	_, mTimed, err := RunTimed(DefaultConfig(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mFunc.IntRegs != mTimed.IntRegs {
		t.Error("timed and functional runs disagree on final registers")
	}
	h1, n1 := mFunc.DataHash()
	h2, n2 := mTimed.DataHash()
	if h1 != h2 || n1 != n2 {
		t.Error("timed and functional runs disagree on data hash")
	}
}

func TestJRIndirectJump(t *testing.T) {
	// jr through a register loaded with la: the dynamic launch pattern.
	m := run(t, `
.func main
.main
  la r29, there
  jr r29
  halt          ; unreachable
there:
  li r5, 77
  halt
`)
	if m.IntRegs[5] != 77 {
		t.Errorf("r5 = %d, want 77 (jr did not reach target)", m.IntRegs[5])
	}
}

func TestJRTimingPredictsThroughBTB(t *testing.T) {
	// A jr with a stable target should mispredict once and then hit.
	img := mustAssemble(t, `
.func main
.main
  li r1, 0
  li r2, 300
  la r29, body
loop:
  jr r29
body:
  addi r1, r1, 1
  blt r1, r2, loop
  halt
`)
	stats, _, err := RunTimed(DefaultConfig(), img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BTBMisses > 20 {
		t.Errorf("BTB misses = %d; a stable indirect target should be predictable", stats.BTBMisses)
	}
}
