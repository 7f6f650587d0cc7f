package prog

import (
	"testing"

	"repro/internal/isa"
)

// buildDiamond constructs main with a diamond CFG:
//
//	entry -> (branch) -> left/right -> join -> halt
func buildDiamond(t *testing.T) (*Program, *Func) {
	t.Helper()
	bd := NewBuilder()
	f := bd.Func("main")
	bd.Main()
	entry := bd.Cur()
	left := bd.NewBlock()
	right := bd.NewBlock()
	join := bd.NewBlock()

	bd.Li(1, 10).Li(2, 20)
	bd.Branch(isa.BLT, 1, 2, left, right)
	bd.SetBlock(left).OpI(isa.ADDI, 3, 1, 1)
	bd.Goto(join)
	bd.SetBlock(right).OpI(isa.ADDI, 3, 2, 2)
	bd.Goto(join)
	bd.SetBlock(join).Op3(isa.ADD, 4, 3, 3)
	bd.Halt()

	_ = entry
	return bd.P, f
}

func TestBuilderAndVerify(t *testing.T) {
	p, f := buildDiamond(t)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
}

func TestComputePreds(t *testing.T) {
	p, f := buildDiamond(t)
	p.ComputePreds()
	entry, left, right, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if len(entry.Preds()) != 0 {
		t.Errorf("entry preds = %v, want none", entry.Preds())
	}
	for _, b := range []*Block{left, right} {
		if len(b.Preds()) != 1 || b.Preds()[0] != entry {
			t.Errorf("%s preds = %v, want [entry]", b, b.Preds())
		}
	}
	if len(join.Preds()) != 2 {
		t.Errorf("join preds = %v, want 2", join.Preds())
	}
}

func TestSuccs(t *testing.T) {
	p, f := buildDiamond(t)
	_ = p
	entry := f.Blocks[0]
	succs := entry.Succs(nil)
	if len(succs) != 2 {
		t.Fatalf("entry succs = %v, want 2", succs)
	}
	join := f.Blocks[3]
	if got := join.Succs(nil); len(got) != 0 {
		t.Errorf("halt block succs = %v, want none", got)
	}
	// A branch whose taken target equals its fallthrough yields one succ.
	b := &Block{Kind: TermBranch, Taken: entry, Next: entry}
	if got := b.Succs(nil); len(got) != 1 {
		t.Errorf("degenerate branch succs = %v, want 1", got)
	}
}

func TestLinearizeDiamond(t *testing.T) {
	p, f := buildDiamond(t)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0 {
		t.Errorf("entry = %d, want 0", img.Entry)
	}
	// entry: li, li, blt (fallthrough `right` is not adjacent, so a layout
	// jmp follows) = slots 0..3; left: addi + jmp to join = 4..5;
	// right: addi (join adjacent) = 6; join: add, halt = 7..8.
	want := []isa.Opcode{isa.LI, isa.LI, isa.BLT, isa.JMP, isa.ADDI, isa.JMP, isa.ADDI, isa.ADD, isa.HALT}
	if len(img.Code) != len(want) {
		t.Fatalf("code len = %d, want %d (%v)", len(img.Code), len(want), img.Code)
	}
	for i, op := range want {
		if img.Code[i].Op != op {
			t.Errorf("slot %d = %v, want %v", i, img.Code[i].Op, op)
		}
	}
	left, right, join := f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if img.Code[2].Target != img.BlockAddr[left] {
		t.Errorf("branch target = %d, want %d", img.Code[2].Target, img.BlockAddr[left])
	}
	if img.Code[3].Target != img.BlockAddr[right] {
		t.Errorf("layout jmp target = %d, want %d", img.Code[3].Target, img.BlockAddr[right])
	}
	if img.Code[5].Target != img.BlockAddr[join] {
		t.Errorf("jmp target = %d, want %d", img.Code[5].Target, img.BlockAddr[join])
	}
	if img.BlockAddr[right] != 6 {
		t.Errorf("right block addr = %d, want 6", img.BlockAddr[right])
	}
	// Address maps are mutually consistent.
	for b, a := range img.BlockAddr {
		if img.BlockAt(a) != b {
			t.Errorf("BlockAt(%d) = %v, want %v", a, img.BlockAt(a), b)
		}
	}
	if img.BlockAt(-1) != nil || img.BlockAt(int64(len(img.Code))) != nil {
		t.Error("BlockAt out of range should be nil")
	}
	// The branch's profiled PC is recorded.
	if got := img.TermAddr[f.Blocks[0]]; got != 2 {
		t.Errorf("TermAddr(entry) = %d, want 2", got)
	}
}

func TestLinearizeCallAndLA(t *testing.T) {
	bd := NewBuilder()
	callee := bd.Func("callee")
	bd.OpI(isa.ADDI, 5, 5, 1)
	bd.Ret()

	bd.Func("main")
	bd.Main()
	cont := bd.NewBlock()
	bd.Li(5, 0)
	bd.Call(callee, cont)
	bd.SetBlock(cont)
	bd.La(6, cont)
	bd.Halt()

	if err := bd.P.Verify(); err != nil {
		t.Fatal(err)
	}
	img, err := bd.P.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry == 0 {
		t.Error("main should not be at address 0 (callee is emitted first)")
	}
	// Find the LA and check its target resolved to cont's address.
	contAddr := img.BlockAddr[bd.P.FuncByName("main").Blocks[1]]
	var laSeen bool
	for _, in := range img.Code {
		if in.Op == isa.LA {
			laSeen = true
			if in.Target != contAddr {
				t.Errorf("LA target = %d, want %d", in.Target, contAddr)
			}
		}
		if in.Op == isa.CALL {
			if in.Target != img.BlockAddr[callee.Entry()] {
				t.Errorf("CALL target = %d, want %d", in.Target, img.BlockAddr[callee.Entry()])
			}
		}
	}
	if !laSeen {
		t.Error("no LA emitted")
	}
}

func TestLinearizeErrors(t *testing.T) {
	p := New()
	if _, err := p.Linearize(); err == nil {
		t.Error("linearize with no Main should fail")
	}
	bd := NewBuilder()
	bd.Func("main")
	bd.Main()
	bd.Halt()
	empty := bd.P.AddFunc("empty")
	_ = empty
	if _, err := bd.P.Linearize(); err == nil {
		t.Error("linearize with empty function should fail")
	}
}

func TestVerifyCatchesBadArcs(t *testing.T) {
	p, f := buildDiamond(t)
	other := NewBuilder()
	other.Func("other")
	other.Halt()
	// Arc to a block in another *program*.
	f.Blocks[1].Next = other.P.Funcs[0].Blocks[0]
	if err := p.Verify(); err == nil {
		t.Error("verify should reject arc to foreign program")
	}
}

func TestVerifyCatchesCrossFunctionArcWithoutPackage(t *testing.T) {
	bd := NewBuilder()
	bd.Func("a")
	aEntry := bd.Cur()
	bd.Halt()
	bd.Func("main")
	bd.Main()
	bd.Goto(aEntry) // cross-function, neither is a package
	if err := bd.P.Verify(); err == nil {
		t.Error("verify should reject cross-function arc with no package")
	}
	// Marking the target function as a package legitimizes it.
	bd.P.FuncByName("a").IsPackage = true
	if err := bd.P.Verify(); err != nil {
		t.Errorf("verify rejected a package launch arc: %v", err)
	}
}

func TestVerifyCatchesControlInBody(t *testing.T) {
	p, f := buildDiamond(t)
	f.Blocks[0].Insts = append(f.Blocks[0].Insts, Ins{Inst: isa.Inst{Op: isa.JMP}})
	if err := p.Verify(); err == nil {
		t.Error("verify should reject control op inside block body")
	}
}

func TestVerifyCatchesStrayFields(t *testing.T) {
	p, f := buildDiamond(t)
	join := f.Blocks[3]
	join.Taken = f.Blocks[0] // halt block with Taken set
	if err := p.Verify(); err == nil {
		t.Error("verify should reject stray Taken on halt block")
	}
}

func TestVerifyCatchesBadBranchFields(t *testing.T) {
	p, f := buildDiamond(t)
	f.Blocks[0].CmpOp = isa.ADD
	if err := p.Verify(); err == nil {
		t.Error("verify should reject non-branch CmpOp")
	}
}

func TestCallees(t *testing.T) {
	bd := NewBuilder()
	callee := bd.Func("callee")
	bd.Ret()
	bd.Func("main")
	bd.Main()
	c1 := bd.NewBlock()
	c2 := bd.NewBlock()
	bd.Call(callee, c1)
	bd.SetBlock(c1)
	bd.Call(callee, c2)
	bd.SetBlock(c2)
	bd.Halt()

	fns := Callees(bd.P.Main)
	if len(fns) != 1 || fns[0] != callee {
		t.Errorf("Callees = %v, want [callee]", fns)
	}
}

func TestLivenessDiamond(t *testing.T) {
	p, f := buildDiamond(t)
	_ = p
	lv := ComputeLiveness(f)
	entry, left, join := f.Blocks[0], f.Blocks[1], f.Blocks[3]
	// r3 is defined on both sides and consumed at join: live into left.
	if lv.In[left].Has(3) {
		t.Error("r3 live into left though left defines it")
	}
	if !lv.In[left].Has(1) {
		t.Error("r1 should be live into left (used by addi)")
	}
	if !lv.In[join].Has(3) {
		t.Error("r3 should be live into join")
	}
	// entry defines r1/r2 itself, so nothing need be live in.
	if lv.In[entry].Has(1) || lv.In[entry].Has(2) {
		t.Error("entry should not have r1/r2 live-in")
	}
}

func TestLivenessAcrossCall(t *testing.T) {
	bd := NewBuilder()
	callee := bd.Func("callee")
	bd.Ret()
	bd.Func("main")
	bd.Main()
	cont := bd.NewBlock()
	bd.Li(7, 42)
	bd.Call(callee, cont)
	bd.SetBlock(cont)
	bd.Op3(isa.ADD, 8, 7, 7)
	bd.Halt()

	lv := ComputeLiveness(bd.P.Main)
	callBlock := bd.P.Main.Blocks[0]
	if !lv.Out[callBlock].Has(7) {
		t.Error("r7 should be live out of the call block")
	}
	// Conservative model: call blocks expose (almost) everything.
	if !lv.In[callBlock].Has(20) {
		t.Error("conservative call liveness should mark r20 live-in")
	}
}

func TestRegSetOps(t *testing.T) {
	var s RegSet
	s = s.Add(3).Add(isa.RRA).Add(isa.F(2))
	if !s.Has(3) || !s.Has(isa.RRA) || !s.Has(isa.F(2)) || s.Has(4) {
		t.Error("RegSet Add/Has wrong")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	regs := s.Regs()
	if len(regs) != 3 || regs[0] != 3 {
		t.Errorf("Regs = %v", regs)
	}
	s = s.Remove(3)
	if s.Has(3) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	u := s.Union(RegSet(0).Add(1))
	if !u.Has(1) || !u.Has(isa.RRA) {
		t.Error("Union failed")
	}
}

func TestNumInsts(t *testing.T) {
	p, f := buildDiamond(t)
	// entry: 2 insts + branch = 3; left/right: 1 + 0 (fall) = 1 each;
	// join: 1 + halt = 2. Total 7.
	if got := f.NumInsts(); got != 7 {
		t.Errorf("NumInsts = %d, want 7", got)
	}
	if got := p.NumInsts(); got != 7 {
		t.Errorf("Program.NumInsts = %d, want 7", got)
	}
	if p.NumBlocks() != 4 {
		t.Errorf("NumBlocks = %d, want 4", p.NumBlocks())
	}
}

func TestTermKindString(t *testing.T) {
	kinds := []TermKind{TermFall, TermBranch, TermCall, TermRet, TermHalt}
	want := []string{"fall", "branch", "call", "ret", "halt"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("TermKind(%d) = %q, want %q", uint8(k), k.String(), want[i])
		}
	}
}
