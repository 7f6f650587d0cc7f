package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

const sampleSrc = `
; sample program: sums data words until a zero sentinel
.data 5 7 9 0

.func sum
entry:
  li r2, 0          ; accumulator
  li r3, 1048576    ; DataBase
loop:
  ld r4, 0(r3)
  beq r4, r0, done
  add r2, r2, r4
  addi r3, r3, 8
  jmp loop
done:
  ret

.func main
.main
  li sp, 1073741824
  call sum
  st r2, -8(sp)
  halt
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.Main == nil || p.Main.Name != "main" {
		t.Fatal("main not set")
	}
	if len(p.Data) != 4 || p.Data[1] != 7 {
		t.Fatalf("data = %v", p.Data)
	}
	sum := p.FuncByName("sum")
	if sum == nil {
		t.Fatal("sum not found")
	}
	// entry (li,li) -> loop (ld, beq) -> body (add, addi, jmp) -> done(ret)
	// The entry block falls into loop; beq opens a fallthrough block.
	if got := len(sum.Blocks); got != 4 {
		t.Fatalf("sum blocks = %d, want 4", got)
	}
	loop := sum.Blocks[1]
	if loop.Kind != prog.TermBranch || loop.CmpOp != isa.BEQ {
		t.Fatalf("loop terminator = %v/%v", loop.Kind, loop.CmpOp)
	}
	if loop.Taken != sum.Blocks[3] {
		t.Errorf("beq taken = %v, want done block", loop.Taken)
	}
	if loop.Next != sum.Blocks[2] {
		t.Errorf("beq fallthrough = %v, want body block", loop.Next)
	}
	body := sum.Blocks[2]
	if body.Kind != prog.TermFall || body.Next != loop {
		t.Errorf("body should jump back to loop, got %v -> %v", body.Kind, body.Next)
	}
	// main: block0 (li, call) -> block1 (st, halt)
	if p.Main.Blocks[0].Kind != prog.TermCall || p.Main.Blocks[0].Callee != sum {
		t.Error("main should call sum")
	}
}

func TestAssembleRunsThroughLinearize(t *testing.T) {
	p, err := Assemble(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Code) == 0 {
		t.Fatal("empty image")
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble(".func main\n.main\nL: li r1, 5\n  beq r1, r0, L\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main
	if len(f.Blocks) < 2 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
}

func TestAssembleAllShapes(t *testing.T) {
	src := `
.func aux
  ret
.func main
.main
top:
  nop
  add r1, r2, r3
  addi r1, r2, -7
  li r9, 0x10
  ld r4, 8(sp)
  st r4, 0(r3)
  fld f1, 0(r3)
  fst f1, 8(r3)
  fadd f2, f1, f1
  fcvtif f3, r4
  fcvtfi r5, f3
  la r6, top
  call aux
  bge r1, r2, top
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Linearize(); err != nil {
		t.Fatal(err)
	}
	// Check the LA got its block target.
	var found bool
	for _, b := range p.Main.Blocks {
		for _, in := range b.Insts {
			if in.Op == isa.LA {
				found = true
				if in.BlockTarget == nil {
					t.Error("LA has no BlockTarget")
				}
			}
		}
	}
	if !found {
		t.Error("no LA found")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", ".func f\n  halt\n", "no .main"},
		{"unknown mnemonic", ".func m\n.main\n  frob r1\n", "unknown mnemonic"},
		{"bad reg", ".func m\n.main\n  li r99, 4\n", "invalid register"},
		{"bad fp reg", ".func m\n.main\n  li f16, 4\n", "invalid register"},
		{"outside func", "  li r1, 4\n", "outside .func"},
		{"label outside func", "L:\n", "outside .func"},
		{"undefined label", ".func m\n.main\n  jmp nowhere\n  halt\n", "undefined label"},
		{"undefined call", ".func m\n.main\n  call ghost\n  halt\n", "undefined function"},
		{"duplicate label", ".func m\n.main\nL:\n  nop\nL:\n  halt\n", "duplicate label"},
		{"duplicate func", ".func m\n.main\n  halt\n.func m\n  halt\n", "duplicate function"},
		{"bad directive", ".wat\n", "unknown directive"},
		{"bad data", ".data zebra\n", ".data value"},
		{"branch at end", ".func m\n.main\n  beq r1, r2, m2\nm2:\n  halt\n.func z\n  beq r1, r2, zz\nzz:\n  ret\n", ""},
		{"dangling branch", ".func m\n.main\n  halt\n.func z\nzz:\n  beq r1, r2, zz\n", "no fallthrough"},
		{"bad mem operand", ".func m\n.main\n  ld r1, r2\n  halt\n", "invalid memory operand"},
		{"bad imm", ".func m\n.main\n  addi r1, r2, many\n  halt\n", "immediate"},
		{"ret operands", ".func m\n.main\n  ret r1\n", "no operands"},
		{"branch arity", ".func m\n.main\n  beq r1, r2\n  halt\n", "requires"},
		{"main twice ok", ".func m\n.main\n.main\n  halt\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	_, err := Assemble(".func m\n.main\n  bogus\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 3 {
		t.Errorf("line = %d, want 3", se.Line)
	}
	if !strings.Contains(se.Error(), "line 3") {
		t.Errorf("Error() = %q", se.Error())
	}
}

// Round trip: disassembling and reassembling produces an identical
// linearized image.
func TestDisassembleRoundTrip(t *testing.T) {
	p, err := Assemble(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, p)
}

func TestDisassembleMarksPackage(t *testing.T) {
	p, err := Assemble(".func m\n.main\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	pkg := p.AddFunc("pkg.1")
	b := p.NewBlock(pkg)
	b.Kind = prog.TermRet
	pkg.IsPackage = true
	pkg.PhaseID = 3
	text := Disassemble(p)
	if !strings.Contains(text, ".package 3") {
		t.Fatalf("missing .package directive:\n%s", text)
	}
	p2, err := Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	f2 := p2.FuncByName("pkg.1")
	if f2 == nil || !f2.IsPackage || f2.PhaseID != 3 {
		t.Error("package flags lost in round trip")
	}
}

func TestAssembleMoreErrorShapes(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"jr ok", ".func m\n.main\n  la r29, x\nx:\n  jr r29\n", ""},
		{"jr arity", ".func m\n.main\n  jr\n", "requires a register"},
		{"jr bad reg", ".func m\n.main\n  jr r99\n", "invalid register"},
		{"la arity", ".func m\n.main\n  la r1\n  halt\n", "requires rd, label"},
		{"la bad target", ".func m\n.main\n  la r1, 77\n  halt\n", "not a label"},
		{"jmp numeric", ".func m\n.main\n  jmp 99\n  halt\n", "requires a label"},
		{"call numeric", ".func m\n.main\n  call 99\n  halt\n", "requires a function name"},
		{"branch numeric target", ".func m\n.main\n  beq r1, r2, 42\n  halt\n", "not a label"},
		{"st arity", ".func m\n.main\n  st r1\n  halt\n", "requires"},
		{"ld bad offset", ".func m\n.main\n  ld r1, zz(r2)\n  halt\n", "memory offset"},
		{"ld bad base", ".func m\n.main\n  ld r1, 8(q7)\n  halt\n", "invalid register"},
		{"li arity", ".func m\n.main\n  li r1\n  halt\n", "requires rd, imm"},
		{"cvt arity", ".func m\n.main\n  fcvtif f1\n  halt\n", "requires rd, rs1"},
		{"three-op arity", ".func m\n.main\n  add r1, r2\n  halt\n", "requires rd, rs1, rs2"},
		{"imm-op arity", ".func m\n.main\n  addi r1, r2\n  halt\n", "requires rd, rs1, imm"},
		{"nop operands", ".func m\n.main\n  nop r1\n  halt\n", "no operands"},
		{"halt operands", ".func m\n.main\n  halt r1\n", "no operands"},
		{"func arity", ".func\n", "one identifier"},
		{"func bad name", ".func 9x\n", "one identifier"},
		{"main outside", ".main\n", "outside .func"},
		{"package outside", ".package\n", "outside .func"},
		{"package bad id", ".func m\n.main\n.package zz\n  halt\n", "phase id"},
		{"package extra operand", ".func m\n.main\n.package 3 4\n  halt\n", "at most one phase id"},
		{"main operands", ".func m\n.main m\n  halt\n", ".main takes no operands"},
		{"empty offset ok", ".func m\n.main\n  ld r1, (sp)\n  halt\n", ""},
		{"hex data ok", ".data 0x10 -3\n.func m\n.main\n  halt\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not contain %q", err, c.want)
			}
		})
	}
}

func TestIsIdent(t *testing.T) {
	good := []string{"a", "A9", "foo.bar", "_x", "L_1"}
	bad := []string{"", "9a", "a-b", "a b", "a:b"}
	for _, s := range good {
		if !isIdent(s) {
			t.Errorf("isIdent(%q) = false", s)
		}
	}
	for _, s := range bad {
		if isIdent(s) {
			t.Errorf("isIdent(%q) = true", s)
		}
	}
}

func TestJRRoundTrip(t *testing.T) {
	src := ".func m\n.main\n  la r29, x\nx:\n  jr r29\n"
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p)
	if !strings.Contains(text, "jr r29") {
		t.Fatalf("disassembly missing jr:\n%s", text)
	}
	p2, err := Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := p.Linearize()
	i2, err := p2.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if len(i1.Code) != len(i2.Code) {
		t.Fatal("jr round trip changed image size")
	}
}
