package prog

import (
	"fmt"
	"slices"

	"repro/internal/isa"
)

// Violation is one broken structural rule. Rule is one of
//
//	cfg/main — Main is set and belongs to the program
//	cfg/dup  — functions and blocks are unique, non-empty, with correct
//	           back-pointers and unique, non-negative block IDs
//	cfg/term — terminator fields are consistent with the block's Kind
//	cfg/inst — body instructions have valid opcodes and registers, no
//	           control ops, and LA targets inside the program
//	cfg/arc  — every arc and call target resolves inside the program,
//	           crossing function boundaries only when a package function
//	           is involved (launch points, package links and side exits
//	           back to original code)
//
// Func and Block locate the violation; either may be nil.
type Violation struct {
	Rule  string
	Func  *Func
	Block *Block
	Msg   string
}

func (v Violation) Error() string {
	loc := ""
	switch {
	case v.Block != nil:
		loc = v.Block.String() + ": "
	case v.Func != nil:
		loc = v.Func.Name + ": "
	}
	return fmt.Sprintf("prog: verify: [%s] %s%s", v.Rule, loc, v.Msg)
}

// Verify checks the structural rules every pipeline stage must preserve
// (see Violation) over the whole program. It returns the first violation
// Check finds, or nil.
func (p *Program) Verify() error {
	if vs := p.Check(); len(vs) > 0 {
		return vs[0]
	}
	return nil
}

// Check applies every structural rule to the whole program and returns
// all violations, so a corrupted program reports all of its damage in
// one pass.
func (p *Program) Check() []Violation {
	s := &scope{p: p}
	if p.Main == nil {
		s.add("cfg/main", nil, nil, "Main is nil")
	}
	// Index blocks by ID — program-wide sequential, so a flat slice covers
	// duplicate detection here and arc membership in checkBlock without a
	// pointer map in sight.
	maxID := -1
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			maxID = max(maxID, b.ID)
		}
	}
	ids := make([]*Block, maxID+1)
	s.funcSet = make(map[*Func]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		if s.funcSet[f] {
			s.add("cfg/dup", f, nil, "function appears twice in Funcs")
			continue
		}
		s.funcSet[f] = true
		if len(f.Blocks) == 0 {
			s.add("cfg/dup", f, nil, "function has no blocks")
		}
		for _, b := range f.Blocks {
			if b.Fn != f {
				s.add("cfg/dup", f, b, "block is listed in %q but its Fn points elsewhere", f.Name)
			}
			if b.ID < 0 {
				s.add("cfg/dup", f, b, "block has negative ID %d", b.ID)
				continue
			}
			if other := ids[b.ID]; other != nil {
				s.dupBlock(f, b, other)
				continue
			}
			ids[b.ID] = b
		}
	}
	s.ids = ids
	if p.Main != nil && !s.funcSet[p.Main] {
		s.add("cfg/main", p.Main, nil, "Main is not in Funcs")
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.checkBlock(f, b)
		}
	}
	return s.vs
}

// CheckFunc applies the per-block rules (cfg/dup within the function,
// cfg/term, cfg/inst, cfg/arc) to a single function of p. Optimization
// passes mutate exactly one function, so re-scanning the rest of the
// program after every pass would only re-prove what a whole-program Check
// already covers — at O(program) per pass instead of O(function).
func (p *Program) CheckFunc(fn *Func) []Violation {
	s := &scope{p: p, primaryFn: fn}
	if len(fn.Blocks) == 0 {
		s.add("cfg/dup", fn, nil, "function has no blocks")
	}
	// One map does double duty: duplicate detection here (same pointer
	// twice shares its own ID; distinct blocks sharing an ID are the other
	// cfg/dup case) and intra-function arc membership in checkBlock.
	s.primary = make(map[*Block]bool, len(fn.Blocks))
	ids := make(map[int]*Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		if b.Fn != fn {
			s.add("cfg/dup", fn, b, "block is listed in %q but its Fn points elsewhere", fn.Name)
		}
		if other := ids[b.ID]; other != nil {
			s.dupBlock(fn, b, other)
			continue
		}
		ids[b.ID] = b
		s.primary[b] = true
	}
	for _, b := range fn.Blocks {
		s.checkBlock(fn, b)
	}
	return s.vs
}

// scope carries the per-block rule machinery shared by Check and
// CheckFunc: membership resolution for arc targets, and the violations
// found so far.
type scope struct {
	p         *Program
	funcSet   map[*Func]bool  // built by the whole-program sweep; nil in CheckFunc
	ids       []*Block        // block-ID index when the whole program was swept
	primaryFn *Func           // CheckFunc: the function under check
	primary   map[*Block]bool // CheckFunc: its block set
	vs        []Violation
}

func (s *scope) add(rule string, f *Func, b *Block, format string, args ...any) {
	s.vs = append(s.vs, Violation{Rule: rule, Func: f, Block: b, Msg: fmt.Sprintf(format, args...)})
}

func (s *scope) dupBlock(f *Func, b, other *Block) {
	if other == b {
		s.add("cfg/dup", f, b, "block appears twice")
	} else {
		s.add("cfg/dup", f, b, "shares ID %d with %s", b.ID, other)
	}
}

// inProgram reports whether f is one of the program's functions. The
// whole-program sweep pays for a set once; the function-scoped path
// answers its few cross-function queries by scanning Funcs instead.
func (s *scope) inProgram(f *Func) bool {
	if s.funcSet != nil {
		return s.funcSet[f]
	}
	return f != nil && slices.Contains(s.p.Funcs, f)
}

// known reports whether b is a block of a function in the program. When
// the whole program was indexed up front (Check), membership is a flat
// slice lookup on the block's ID; otherwise (CheckFunc) the checked
// function's seeded set answers intra-function arcs and rare
// cross-function targets fall back to scanning their function's block
// list — the handful of exits and launch arcs a package function carries
// don't justify materializing the target function's membership set.
func (s *scope) known(b *Block) bool {
	switch {
	case b.Fn == nil:
		return false
	case s.ids != nil:
		return s.funcSet[b.Fn] && b.ID >= 0 && b.ID < len(s.ids) && s.ids[b.ID] == b
	case b.Fn == s.primaryFn:
		return s.primary[b]
	}
	return s.inProgram(b.Fn) && slices.Contains(b.Fn.Blocks, b)
}

// checkArc checks one arc of from, a block listed in f. The crossing
// rule judges f, not from.Fn, which a cfg/dup block may leave nil.
func (s *scope) checkArc(f *Func, from, to *Block, what string) {
	if !s.known(to) {
		s.add("cfg/arc", nil, from, "%s target %s is not in the program", what, to)
		return
	}
	if to.Fn != f && !f.IsPackage && !to.Fn.IsPackage {
		s.add("cfg/arc", nil, from, "%s target %s crosses functions with no package involved", what, to)
	}
}

// checkBlock applies cfg/term, cfg/inst and cfg/arc to one block.
func (s *scope) checkBlock(f *Func, b *Block) {
	switch b.Kind {
	case TermFall:
		if b.Next == nil {
			s.add("cfg/term", f, b, "fall block has nil Next")
		} else {
			s.checkArc(f, b, b.Next, "fallthrough")
		}
		if b.Taken != nil || b.Callee != nil {
			s.add("cfg/term", f, b, "fall block has stray terminator fields")
		}
	case TermBranch:
		if b.Taken == nil || b.Next == nil {
			s.add("cfg/term", f, b, "branch block missing Taken or Next")
		} else {
			s.checkArc(f, b, b.Taken, "taken")
			s.checkArc(f, b, b.Next, "fallthrough")
		}
		if !b.CmpOp.IsCondBranch() {
			s.add("cfg/term", f, b, "branch block has CmpOp %v", b.CmpOp)
		}
		if !b.Rs1.Valid() || !b.Rs2.Valid() {
			s.add("cfg/term", f, b, "branch block has invalid compare registers")
		}
		if b.Callee != nil {
			s.add("cfg/term", f, b, "branch block has Callee set")
		}
	case TermCall:
		if b.Callee == nil || b.Next == nil {
			s.add("cfg/term", f, b, "call block missing Callee or Next")
		} else {
			if !s.inProgram(b.Callee) {
				s.add("cfg/arc", f, b, "call targets function %q not in program", b.Callee.Name)
			}
			// The continuation must stay in the same function (or
			// package): a call returns to pc+1.
			s.checkArc(f, b, b.Next, "continuation")
		}
		if b.Taken != nil {
			s.add("cfg/term", f, b, "call block has Taken set")
		}
	case TermRet, TermHalt:
		if b.Taken != nil || b.Next != nil || b.Callee != nil {
			s.add("cfg/term", f, b, "%v block has stray terminator fields", b.Kind)
		}
	case TermJumpReg:
		if !b.Rs1.Valid() {
			s.add("cfg/term", f, b, "jr block has invalid register")
		}
		if b.Taken != nil || b.Next != nil || b.Callee != nil {
			s.add("cfg/term", f, b, "jr block has stray terminator fields")
		}
	default:
		s.add("cfg/term", f, b, "invalid terminator kind %d", uint8(b.Kind))
	}
	for i, in := range b.Insts {
		if !in.Op.Valid() {
			s.add("cfg/inst", f, b, "inst %d has invalid opcode", i)
			continue
		}
		if in.Op.IsControl() {
			s.add("cfg/inst", f, b, "inst %d is control op %v inside block body", i, in.Op)
		}
		for _, r := range [...]isa.Reg{in.Rd, in.Rs1, in.Rs2} {
			if !r.Valid() {
				s.add("cfg/inst", f, b, "inst %d has invalid register %d", i, uint8(r))
			}
		}
		if in.BlockTarget != nil {
			if in.Op != isa.LA {
				s.add("cfg/inst", f, b, "inst %d: BlockTarget on non-LA op %v", i, in.Op)
			}
			if !s.known(in.BlockTarget) {
				s.add("cfg/inst", f, b, "inst %d: LA target %s not in program", i, in.BlockTarget)
			}
		}
	}
}
