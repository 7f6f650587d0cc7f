package isa

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"},
		{Reg(4), "r4"},
		{RSP, "sp"},
		{RRA, "ra"},
		{F(0), "f0"},
		{F(15), "f15"},
		{Reg(200), "reg?200"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(c.r), got, c.want)
		}
	}
}

func TestFRange(t *testing.T) {
	if got := F(3); got != Reg(NumIntRegs+3) {
		t.Errorf("F(3) = %d, want %d", got, NumIntRegs+3)
	}
	defer func() {
		if recover() == nil {
			t.Error("F(16) did not panic")
		}
	}()
	F(16)
}

func TestRegClassification(t *testing.T) {
	if F(0).IsFP() != true || Reg(5).IsFP() != false {
		t.Error("IsFP misclassifies registers")
	}
	if !Reg(NumRegs-1).Valid() || Reg(NumRegs).Valid() {
		t.Error("Valid boundary wrong")
	}
}

func TestOpcodeTablesComplete(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", uint8(op))
		}
		if opTable[op].latency < 1 {
			t.Errorf("opcode %s has latency %d < 1", op, opTable[op].latency)
		}
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v; want %v, true", op.String(), got, ok, op)
		}
	}
	if _, ok := OpcodeByName("bogus"); ok {
		t.Error("OpcodeByName accepted bogus mnemonic")
	}
}

func TestOpcodeClassPredicates(t *testing.T) {
	condBranches := []Opcode{BEQ, BNE, BLT, BGE}
	for _, op := range condBranches {
		if !op.IsCondBranch() || !op.IsControl() {
			t.Errorf("%s should be a conditional branch and control", op)
		}
		if op.FU() != FUBranch {
			t.Errorf("%s FU = %v, want branch", op, op.FU())
		}
	}
	for _, op := range []Opcode{JMP, CALL, RET, HALT} {
		if op.IsCondBranch() {
			t.Errorf("%s should not be a conditional branch", op)
		}
		if !op.IsControl() {
			t.Errorf("%s should be control", op)
		}
	}
	for _, op := range []Opcode{ADD, LD, FADD, LA, LI} {
		if op.IsControl() {
			t.Errorf("%s should not be control", op)
		}
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in       Inst
		wantDef  Reg
		hasDef   bool
		wantUses []Reg
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, 1, true, []Reg{2, 3}},
		{Inst{Op: ADD, Rd: R0, Rs1: 2, Rs2: 3}, 0, false, []Reg{2, 3}},
		{Inst{Op: ADD, Rd: 1, Rs1: R0, Rs2: R0}, 1, true, nil},
		{Inst{Op: CALL, Target: 10}, RRA, true, nil},
		{Inst{Op: RET}, 0, false, []Reg{RRA}},
		{Inst{Op: ST, Rs1: 4, Rs2: 5}, 0, false, []Reg{4, 5}},
		{Inst{Op: LI, Rd: 7, Imm: 3}, 7, true, nil},
		{Inst{Op: JMP, Target: 3}, 0, false, nil},
	}
	for _, c := range cases {
		d, ok := c.in.Defs()
		if ok != c.hasDef || (ok && d != c.wantDef) {
			t.Errorf("%v Defs() = %v,%v; want %v,%v", c.in, d, ok, c.wantDef, c.hasDef)
		}
		uses := c.in.Uses(nil)
		if len(uses) != len(c.wantUses) {
			t.Errorf("%v Uses() = %v; want %v", c.in, uses, c.wantUses)
			continue
		}
		for i := range uses {
			if uses[i] != c.wantUses[i] {
				t.Errorf("%v Uses()[%d] = %v; want %v", c.in, i, uses[i], c.wantUses[i])
			}
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: LI, Rd: 9, Imm: 100}, "li r9, 100"},
		{Inst{Op: LD, Rd: 1, Rs1: RSP, Imm: 8}, "ld r1, 8(sp)"},
		{Inst{Op: ST, Rs2: 3, Rs1: RSP, Imm: 16}, "st r3, 16(sp)"},
		{Inst{Op: BEQ, Rs1: 1, Rs2: 2, Target: 42}, "beq r1, r2, @42"},
		{Inst{Op: JMP, Target: 7}, "jmp @7"},
		{Inst{Op: RET}, "ret"},
		{Inst{Op: LA, Rd: 5, Target: 9}, "la r5, @9"},
		{Inst{Op: FCVTIF, Rd: F(1), Rs1: 3}, "fcvtif f1, r3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestFUClassString(t *testing.T) {
	for _, c := range []FUClass{FUNone, FUIALU, FUFP, FUMem, FUBranch} {
		if s := c.String(); s == "" || strings.HasPrefix(s, "fu?") {
			t.Errorf("FUClass(%d).String() = %q", uint8(c), s)
		}
	}
	if s := FUClass(9).String(); s != "fu?9" {
		t.Errorf("unknown FUClass string = %q", s)
	}
}
