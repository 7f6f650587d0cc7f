// Package prog holds the structured program representation the Vacuum
// Packing pipeline analyzes and rewrites: functions of basic blocks with
// explicit control-flow arcs and a call graph, plus the linearizer that
// lowers the structure to a flat VPIR code image for simulation.
//
// The representation mirrors the paper's: "the CFG is constructed with
// instructions divided into basic blocks, where each block contains no more
// than one branch or sub-routine call, which is always the last instruction
// in the block" (§3.2.1). Block terminators are symbolic (pointers to blocks
// and functions); only linearization assigns addresses.
package prog

import (
	"fmt"

	"repro/internal/isa"
)

// Memory layout constants shared by the linearizer, emulator and workloads.
const (
	// DataBase is the byte address of the start of the data segment.
	DataBase = 1 << 20
	// StackBase is the initial stack pointer; the stack grows down.
	StackBase = 1 << 30
	// ScratchBase is where the optimizer allocates its own state words
	// (dynamic launch-point slots). The region lies outside the
	// data-segment equivalence hash: optimizer bookkeeping holds code
	// addresses, which legitimately differ between original and rewritten
	// images.
	ScratchBase = StackBase / 2
)

// TermKind classifies a block's terminator.
type TermKind uint8

const (
	// TermFall transfers to Next unconditionally (a fallthrough or jump,
	// depending on layout adjacency).
	TermFall TermKind = iota
	// TermBranch is a conditional branch: Taken if the condition holds,
	// otherwise Next.
	TermBranch
	// TermCall calls Callee and continues at Next when it returns.
	TermCall
	// TermRet returns through the return-address register.
	TermRet
	// TermHalt stops the machine.
	TermHalt
	// TermJumpReg transfers to the address in register Rs1 (indirect
	// jump). Its successors are statically unknown; only optimizer-
	// synthesized code (dynamic launch shims) uses it.
	TermJumpReg
)

func (k TermKind) String() string {
	switch k {
	case TermFall:
		return "fall"
	case TermBranch:
		return "branch"
	case TermCall:
		return "call"
	case TermRet:
		return "ret"
	case TermHalt:
		return "halt"
	case TermJumpReg:
		return "jr"
	default:
		return fmt.Sprintf("term?%d", uint8(k))
	}
}

// Ins is one non-terminator instruction inside a block. BlockTarget, when
// non-nil, names the block whose address the linearizer substitutes into
// the instruction's Target field (used by LA to materialize return
// addresses for partially inlined calls).
type Ins struct {
	isa.Inst
	BlockTarget *Block
}

// Block is a basic block. Control leaves only through the terminator
// described by Kind and the Taken/Next/Callee fields.
type Block struct {
	ID    int
	Fn    *Func
	Insts []Ins

	Kind   TermKind
	CmpOp  isa.Opcode // TermBranch: BEQ, BNE, BLT or BGE
	Rs1    isa.Reg    // TermBranch comparison operands
	Rs2    isa.Reg
	Taken  *Block // TermBranch: target when the condition holds
	Next   *Block // TermFall/TermBranch fallthrough/TermCall continuation
	Callee *Func  // TermCall target

	// Origin points at the block this one was copied from during package
	// construction; nil for original blocks. It is the identity used by
	// package linking to find "the same branch" in sibling packages.
	Origin *Block

	// ExitConsumes lists registers live into the original cold code this
	// exit block transfers to. It models the paper's dummy consumer
	// instructions: the optimizer must treat these registers as read here.
	ExitConsumes []isa.Reg

	preds []*Block
}

// Succs appends b's control-flow successors within the CFG to dst. Call
// blocks have their continuation as the sole CFG successor; the callee
// relationship lives in the call graph.
func (b *Block) Succs(dst []*Block) []*Block {
	switch b.Kind {
	case TermFall:
		if b.Next != nil {
			dst = append(dst, b.Next)
		}
	case TermBranch:
		if b.Taken != nil {
			dst = append(dst, b.Taken)
		}
		if b.Next != nil && b.Next != b.Taken {
			dst = append(dst, b.Next)
		}
	case TermCall:
		if b.Next != nil {
			dst = append(dst, b.Next)
		}
	}
	return dst
}

// Append appends body instructions to b. Packages outside the IR's
// owners (internal/prog, internal/opt, internal/pack) must extend
// instruction lists through this method rather than writing b.Insts
// directly — cmd/vplint's insts-mutation check enforces the split, which
// keeps the optimizer's pass certificates (opt.PassRecord) honest about
// who rewrote what.
func (b *Block) Append(ins ...Ins) {
	b.Insts = append(b.Insts, ins...)
}

// Preds returns the most recently computed predecessor list. Callers that
// mutate the CFG must call Program.ComputePreds (or Func.ComputePreds)
// before relying on it.
func (b *Block) Preds() []*Block { return b.preds }

// NumInsts counts the instructions in the block including its terminator's
// primary instruction (branches, calls, returns and halts each occupy one
// slot; fallthroughs may or may not need a jump depending on layout, so
// they are not counted here).
func (b *Block) NumInsts() int {
	n := len(b.Insts)
	switch b.Kind {
	case TermBranch, TermCall, TermRet, TermHalt, TermJumpReg:
		n++
	}
	return n
}

func (b *Block) String() string {
	if b == nil {
		return "<nil>"
	}
	fn := "?"
	if b.Fn != nil {
		fn = b.Fn.Name
	}
	return fmt.Sprintf("%s.b%d", fn, b.ID)
}

// Func is a function: an ordered list of blocks whose first element is the
// entry. The order is the code layout the linearizer emits.
type Func struct {
	Name   string
	Blocks []*Block
	// IsPackage marks functions created by package extraction. Package
	// functions are entered by launch-point jumps and package links rather
	// than calls, and may contain arcs to blocks of other functions
	// (side exits back to original code).
	IsPackage bool
	// PhaseID records which detected phase a package was built for.
	PhaseID int
}

// Entry returns the function's entry block, or nil if it has no blocks.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// ComputePreds recomputes predecessor lists for blocks of this function
// considering only arcs that originate inside it.
func (f *Func) ComputePreds() {
	for _, b := range f.Blocks {
		b.preds = b.preds[:0]
	}
	var succs []*Block
	for _, b := range f.Blocks {
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			if s.Fn == f {
				s.preds = append(s.preds, b)
			}
		}
	}
}

// NumInsts sums NumInsts over the function's blocks.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += b.NumInsts()
	}
	return n
}

// Program is a whole VPIR program: an entry function, the function list,
// and the initial data segment.
type Program struct {
	Funcs []*Func
	Main  *Func
	// Data is the initial contents of the data segment, one 64-bit word per
	// element, starting at byte address DataBase.
	Data []int64
	// ScratchWords counts optimizer state words allocated at ScratchBase
	// (zero-initialized at run time).
	ScratchWords int

	nextBlockID int
}

// AllocScratch reserves one optimizer state word and returns its byte
// address.
func (p *Program) AllocScratch() int64 {
	addr := int64(ScratchBase) + int64(p.ScratchWords)*8
	p.ScratchWords++
	return addr
}

// New returns an empty program.
func New() *Program { return &Program{} }

// AddFunc appends a new empty function with the given name.
func (p *Program) AddFunc(name string) *Func {
	f := &Func{Name: name}
	p.Funcs = append(p.Funcs, f)
	return f
}

// NewBlock appends a fresh block (TermHalt by default so an unfinished
// block cannot fall off the end silently) to fn and returns it.
func (p *Program) NewBlock(fn *Func) *Block {
	b := &Block{ID: p.nextBlockID, Fn: fn, Kind: TermHalt}
	p.nextBlockID++
	fn.Blocks = append(fn.Blocks, b)
	return b
}

// AdoptBlock gives an externally constructed block (e.g. a clone) a fresh
// ID and appends it to fn.
func (p *Program) AdoptBlock(fn *Func, b *Block) {
	b.ID = p.nextBlockID
	p.nextBlockID++
	b.Fn = fn
	fn.Blocks = append(fn.Blocks, b)
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ComputePreds recomputes predecessor lists program-wide, including arcs
// that cross function boundaries (package launch points, links and exits).
func (p *Program) ComputePreds() {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.preds = b.preds[:0]
		}
	}
	var succs []*Block
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			succs = b.Succs(succs[:0])
			for _, s := range succs {
				s.preds = append(s.preds, b)
			}
		}
	}
}

// NumBlocks counts blocks program-wide.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// NumInsts counts static instructions program-wide (linearized size may be
// slightly larger because of layout jumps).
func (p *Program) NumInsts() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInsts()
	}
	return n
}

// Callees returns the set of functions fn calls directly.
func Callees(fn *Func) []*Func {
	seen := make(map[*Func]bool)
	var out []*Func
	for _, b := range fn.Blocks {
		if b.Kind == TermCall && b.Callee != nil && !seen[b.Callee] {
			seen[b.Callee] = true
			out = append(out, b.Callee)
		}
	}
	return out
}

// OriginRoot follows a block's Origin chain to the original block it was
// ultimately copied from; for original blocks it returns the block itself.
func OriginRoot(b *Block) *Block {
	for b.Origin != nil {
		b = b.Origin
	}
	return b
}
