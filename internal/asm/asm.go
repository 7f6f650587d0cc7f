// Package asm implements a two-pass assembler and a disassembler for VPIR
// programs. The textual form exists for hand-written test inputs, examples
// and debugging dumps; the workload generator builds programs directly.
//
// Syntax (one statement per line, ';' or '#' start comments):
//
//	.func NAME        start a function
//	.main             mark the current function as the program entry
//	.data V1 V2 ...   append 64-bit words to the data segment
//	LABEL:            start a new basic block
//	  li r1, 10       instructions in VPIR assembly
//	  beq r1, r2, L   conditional branch to label L, falls through
//	  jmp L           unconditional transfer
//	  call F          call function F, continues at the next statement
//	  la r1, L        materialize the address of label L
//	  ret / halt      block terminators
//
// Labels are scoped to their function. A label on a line by itself starts a
// new block; falling off the end of a block without a terminator creates a
// fallthrough arc to the next block.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// SyntaxError reports an assembly failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

type fixup struct {
	block *prog.Block
	// what to patch once labels resolve
	field string // "taken", "next", "la"
	laIdx int    // instruction index for "la"
	label string
	line  int
}

type callFixup struct {
	block *prog.Block
	name  string
	line  int
}

type assembler struct {
	p *prog.Program

	fn  *prog.Func
	cur *prog.Block // nil when the previous statement sealed the block
	// pendingFall is a branch or call block whose fallthrough/continuation
	// arc must be wired to whatever block materializes next.
	pendingFall  *prog.Block
	labels       map[string]*prog.Block
	globalLabels map[string]*prog.Block
	fixes        []fixup
	globalFixes  []fixup
	calls        []callFixup
	line         int
}

// Assemble parses src into a program and verifies it.
func Assemble(src string) (*prog.Program, error) {
	a := &assembler{p: prog.New(), globalLabels: make(map[string]*prog.Block)}
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		a.line++
		if err := a.statement(line); err != nil {
			return nil, err
		}
	}
	if err := a.endFunc(); err != nil {
		return nil, err
	}
	for _, fx := range a.globalFixes {
		target, ok := a.globalLabels[fx.label]
		if !ok {
			return nil, &SyntaxError{fx.line, fmt.Sprintf("undefined label %q", fx.label)}
		}
		applyFix(fx, target)
	}
	for _, cf := range a.calls {
		f := a.p.FuncByName(cf.name)
		if f == nil {
			return nil, &SyntaxError{cf.line, fmt.Sprintf("call to undefined function %q", cf.name)}
		}
		cf.block.Callee = f
	}
	if a.p.Main == nil {
		return nil, &SyntaxError{a.line, "no .main function declared"}
	}
	if err := a.p.Verify(); err != nil {
		return nil, fmt.Errorf("asm: assembled program invalid: %w", err)
	}
	return a.p, nil
}

func (a *assembler) errf(format string, args ...any) error {
	return &SyntaxError{a.line, fmt.Sprintf(format, args...)}
}

// block returns the current block, opening a new one if necessary and
// wiring any pending branch/call fallthrough arc to it.
func (a *assembler) block() (*prog.Block, error) {
	if a.fn == nil {
		return nil, a.errf("statement outside .func")
	}
	if a.cur == nil {
		a.cur = a.p.NewBlock(a.fn)
		if a.pendingFall != nil {
			a.pendingFall.Next = a.cur
			a.pendingFall = nil
		}
	}
	return a.cur, nil
}

// seal closes the current block with the given mutation applied.
func (a *assembler) seal(mut func(b *prog.Block)) error {
	b, err := a.block()
	if err != nil {
		return err
	}
	mut(b)
	a.cur = nil
	return nil
}

func (a *assembler) endFunc() error {
	if a.fn == nil {
		return nil
	}
	if a.pendingFall != nil {
		return &SyntaxError{a.line, fmt.Sprintf("branch or call at end of function %s has no fallthrough code", a.fn.Name)}
	}
	// An open trailing block keeps its default Halt terminator: code that
	// falls off the end of a function stops the machine, which surfaces
	// bugs instead of hiding them.
	a.cur = nil
	for _, fx := range a.fixes {
		target, ok := a.labels[fx.label]
		if !ok {
			// Defer to the program-wide label table; package code may
			// legitimately reference blocks of other functions.
			a.globalFixes = append(a.globalFixes, fx)
			continue
		}
		applyFix(fx, target)
	}
	for name, b := range a.labels {
		if _, dup := a.globalLabels[name]; !dup {
			a.globalLabels[name] = b
		}
	}
	a.fixes = a.fixes[:0]
	a.labels = nil
	a.fn = nil
	return nil
}

func applyFix(fx fixup, target *prog.Block) {
	switch fx.field {
	case "taken":
		fx.block.Taken = target
	case "next":
		fx.block.Next = target
	case "la":
		fx.block.Insts[fx.laIdx].BlockTarget = target
	}
}

func (a *assembler) statement(raw string) error {
	line := raw
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	// Label prefix (possibly followed by an instruction on the same line).
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			break
		}
		name := strings.TrimSpace(line[:i])
		if !isIdent(name) {
			break // e.g. "ld r1, 0(r2)" contains no ':', so this is unreachable; defensive
		}
		if err := a.label(name); err != nil {
			return err
		}
		line = strings.TrimSpace(line[i+1:])
		if line == "" {
			return nil
		}
	}

	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	return a.instruction(line)
}

func (a *assembler) label(name string) error {
	if a.fn == nil {
		return a.errf("label %q outside .func", name)
	}
	if _, dup := a.labels[name]; dup {
		return a.errf("duplicate label %q", name)
	}
	nb := a.p.NewBlock(a.fn)
	if a.cur != nil {
		// Previous block still open: fall through into the labeled block.
		a.cur.Kind = prog.TermFall
		a.cur.Next = nb
	}
	if a.pendingFall != nil {
		a.pendingFall.Next = nb
		a.pendingFall = nil
	}
	a.cur = nb
	a.labels[name] = nb
	return nil
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".func":
		if len(fields) != 2 || !isIdent(fields[1]) {
			return a.errf(".func requires one identifier argument")
		}
		if err := a.endFunc(); err != nil {
			return err
		}
		if a.p.FuncByName(fields[1]) != nil {
			return a.errf("duplicate function %q", fields[1])
		}
		a.fn = a.p.AddFunc(fields[1])
		a.cur = nil // entry block materializes at the first statement
		a.labels = make(map[string]*prog.Block)
		return nil
	case ".main":
		if a.fn == nil {
			return a.errf(".main outside .func")
		}
		if len(fields) != 1 {
			return a.errf(".main takes no operands")
		}
		a.p.Main = a.fn
		return nil
	case ".package":
		if a.fn == nil {
			return a.errf(".package outside .func")
		}
		if len(fields) > 2 {
			return a.errf(".package takes at most one phase id")
		}
		a.fn.IsPackage = true
		if len(fields) == 2 {
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return a.errf(".package phase id %q: %v", fields[1], err)
			}
			a.fn.PhaseID = id
		}
		return nil
	case ".data":
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return a.errf(".data value %q: %v", f, err)
			}
			a.p.Data = append(a.p.Data, v)
		}
		return nil
	default:
		return a.errf("unknown directive %q", fields[0])
	}
}

func (a *assembler) instruction(line string) error {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, ok := isa.OpcodeByName(mnem)
	if !ok {
		return a.errf("unknown mnemonic %q", mnem)
	}
	var buf [4]string
	args := splitArgs(rest, &buf)

	switch op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		if len(args) != 3 {
			return a.errf("%s requires rs1, rs2, label", mnem)
		}
		rs1, err := a.reg(args[0])
		if err != nil {
			return err
		}
		rs2, err := a.reg(args[1])
		if err != nil {
			return err
		}
		if !isIdent(args[2]) {
			return a.errf("%s target %q is not a label", mnem, args[2])
		}
		lbl := args[2]
		b, err := a.block()
		if err != nil {
			return err
		}
		b.Kind = prog.TermBranch
		b.CmpOp = op
		b.Rs1, b.Rs2 = rs1, rs2
		a.fixes = append(a.fixes, fixup{block: b, field: "taken", label: lbl, line: a.line})
		// Fallthrough: open the next block immediately so the arc exists.
		// If a label follows, it reuses this block only via labelling a new
		// one — so instead leave cur nil and patch Next when the successor
		// block materializes.
		a.pendingFall = b
		a.cur = nil
		return nil
	case isa.JMP:
		if len(args) != 1 || !isIdent(args[0]) {
			return a.errf("jmp requires a label")
		}
		lbl := args[0]
		return a.seal(func(b *prog.Block) {
			b.Kind = prog.TermFall
			a.fixes = append(a.fixes, fixup{block: b, field: "next", label: lbl, line: a.line})
		})
	case isa.CALL:
		if len(args) != 1 || !isIdent(args[0]) {
			return a.errf("call requires a function name")
		}
		name := args[0]
		b, err := a.block()
		if err != nil {
			return err
		}
		b.Kind = prog.TermCall
		a.calls = append(a.calls, callFixup{block: b, name: name, line: a.line})
		a.pendingFall = b
		a.cur = nil
		return nil
	case isa.RET:
		if len(args) != 0 {
			return a.errf("ret takes no operands")
		}
		return a.seal(func(b *prog.Block) { b.Kind = prog.TermRet })
	case isa.JR:
		if len(args) != 1 {
			return a.errf("jr requires a register")
		}
		rs1, err := a.reg(args[0])
		if err != nil {
			return err
		}
		return a.seal(func(b *prog.Block) {
			b.Kind = prog.TermJumpReg
			b.Rs1 = rs1
		})
	case isa.HALT:
		if len(args) != 0 {
			return a.errf("halt takes no operands")
		}
		return a.seal(func(b *prog.Block) { b.Kind = prog.TermHalt })
	case isa.LA:
		if len(args) != 2 {
			return a.errf("la requires rd, label")
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		if !isIdent(args[1]) {
			return a.errf("la target %q is not a label", args[1])
		}
		b, err := a.block()
		if err != nil {
			return err
		}
		b.Append(prog.Ins{Inst: isa.Inst{Op: isa.LA, Rd: rd}})
		a.fixes = append(a.fixes, fixup{block: b, field: "la", laIdx: len(b.Insts) - 1, label: args[1], line: a.line})
		return nil
	}

	// Plain (non-control) instructions.
	in := isa.Inst{Op: op}
	switch {
	case op == isa.LD || op == isa.FLD: // ld rd, imm(rs1)
		if len(args) != 2 {
			return a.errf("%s requires rd, imm(rs1)", mnem)
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		imm, rs1, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, rs1, imm
	case op == isa.ST || op == isa.FST: // st rs2, imm(rs1)
		if len(args) != 2 {
			return a.errf("%s requires rs2, imm(rs1)", mnem)
		}
		rs2, err := a.reg(args[0])
		if err != nil {
			return err
		}
		imm, rs1, err := a.memOperand(args[1])
		if err != nil {
			return err
		}
		in.Rs2, in.Rs1, in.Imm = rs2, rs1, imm
	case op == isa.LI:
		if len(args) != 2 {
			return a.errf("li requires rd, imm")
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		imm, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return a.errf("li immediate %q: %v", args[1], err)
		}
		in.Rd, in.Imm = rd, imm
	case op.HasRd() && op.HasRs1() && op.HasRs2():
		if len(args) != 3 {
			return a.errf("%s requires rd, rs1, rs2", mnem)
		}
		var err error
		if in.Rd, err = a.reg(args[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.reg(args[1]); err != nil {
			return err
		}
		if in.Rs2, err = a.reg(args[2]); err != nil {
			return err
		}
	case op.HasRd() && op.HasRs1() && op.HasImm():
		if len(args) != 3 {
			return a.errf("%s requires rd, rs1, imm", mnem)
		}
		var err error
		if in.Rd, err = a.reg(args[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.reg(args[1]); err != nil {
			return err
		}
		if in.Imm, err = strconv.ParseInt(args[2], 0, 64); err != nil {
			return a.errf("%s immediate %q: %v", mnem, args[2], err)
		}
	case op.HasRd() && op.HasRs1(): // fcvtif / fcvtfi
		if len(args) != 2 {
			return a.errf("%s requires rd, rs1", mnem)
		}
		var err error
		if in.Rd, err = a.reg(args[0]); err != nil {
			return err
		}
		if in.Rs1, err = a.reg(args[1]); err != nil {
			return err
		}
	case op == isa.NOP:
		if len(args) != 0 {
			return a.errf("nop takes no operands")
		}
	default:
		return a.errf("unhandled instruction shape for %q", mnem)
	}

	b, err := a.block()
	if err != nil {
		return err
	}
	b.Append(prog.Ins{Inst: in})
	return nil
}

func (a *assembler) reg(s string) (isa.Reg, error) {
	switch s {
	case "sp":
		return isa.RSP, nil
	case "ra":
		return isa.RRA, nil
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'f') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 {
			if s[0] == 'r' && n < isa.NumIntRegs {
				return isa.Reg(n), nil
			}
			if s[0] == 'f' && n < isa.NumFPRegs {
				return isa.F(n), nil
			}
		}
	}
	return 0, a.errf("invalid register %q", s)
}

// memOperand parses "imm(reg)".
func (a *assembler) memOperand(s string) (int64, isa.Reg, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("invalid memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	imm := int64(0)
	if immStr != "" {
		v, err := strconv.ParseInt(immStr, 0, 64)
		if err != nil {
			return 0, 0, a.errf("memory offset %q: %v", immStr, err)
		}
		imm = v
	}
	r, err := a.reg(strings.TrimSpace(s[open+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return imm, r, nil
}

// splitArgs splits a comma-separated operand list into buf and returns
// the filled prefix. No instruction takes more than three operands, so a
// list cut short at four still fails every arity check.
func splitArgs(s string, buf *[4]string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	n := 0
	for more := true; more && n < len(buf); n++ {
		var arg string
		arg, s, more = strings.Cut(s, ",")
		buf[n] = strings.TrimSpace(arg)
	}
	return buf[:n]
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
