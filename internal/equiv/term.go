// Package equiv is the pipeline's translation-validation engine: it
// proves each optimized package observationally equivalent to the region
// code it replaced. Where internal/verify re-checks structural invariants
// and transformation certificates, equiv re-executes both versions
// symbolically, path by path, and demands that every observable effect —
// live-out register values, the memory write sequence, side-exit targets,
// call and return states — is the *same term* over the package's initial
// state. Dead differences introduced by merging, sinking, relayout or
// rescheduling are tolerated; real semantic drift is rejected with a
// structured counterexample (Counterexample) carrying the diverging path,
// the mismatched terms and, when the term constraints can be solved, a
// concrete witness state.
//
// The proof obligation is discharged per package: Capture snapshots the
// package function after installation and linking but before the §5.4
// passes, Prove enumerates the optimized function's paths segment by
// segment (each path ends at the next cut point: an entry or a join
// block) and replays the snapshot under the same branch constraints. A
// package whose proof needs more than Config.MaxPaths paths is refused,
// not sampled. The bounded differential executor (fuzz.go) is the
// tests' concrete oracle for the proofs; Prove never runs it.
package equiv

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// termKind classifies a node of the interned term DAG.
type termKind uint8

const (
	kConst    termKind = iota // integer constant (k)
	kInit                     // initial value of register k at package entry
	kHavoc                    // value of register k&0xff after call number k>>8
	kOp                       // ALU operation op over a (and b)
	kLoad                     // load: a = memory chain, b = address
	kStore                    // store: a = previous chain, b = address, c = value
	kMemInit                  // memory at package entry
	kMemHavoc                 // memory after call number k
	kCodeAddr                 // address of block blk (LA materialization)
	kPred                     // predicate: op is isa.BEQ (==) or isa.BLT (signed <)
)

// Term is one hash-consed node. Terms are interned per proof: two terms
// are semantically checked equal exactly when they are pointer-equal, so
// comparison along paths is O(1) and the DAG never duplicates structure.
type Term struct {
	id      int
	kind    termKind
	op      isa.Opcode
	a, b, c *Term
	k       int64
	blk     *prog.Block
}

// nodeKey is the interner identity of an interior node (kOp, kPred,
// kLoad, kStore): kind and opcode packed together plus the child IDs.
// Interior nodes never carry k or blk, which keeps the key at 16 bytes —
// the interner lookup is the prover's hottest path, and hashing this
// compact key is several times cheaper than hashing the full node shape.
type nodeKey struct {
	ko      uint32 // kind<<16 | opcode
	a, b, c int32  // child IDs, -1 for absent
}

// codeKey is the interner identity of a kCodeAddr leaf.
type codeKey struct {
	blk *prog.Block
	k   int64
}

// Leaf tags distinguishing the scalar-keyed kinds sharing one fast
// int64-keyed map; k is shifted left past the tag.
const (
	leafInit = iota
	leafHavoc
	leafMemHavoc
	numLeafTags
)

// interner hash-conses terms for one package proof, with one map per key
// shape so every lookup hashes the smallest possible key. It is not safe
// for concurrent use; each Prove call owns its own interner, which keeps
// concurrent proofs over different packages trivially race-free.
type interner struct {
	consts  map[int64]*Term   // kConst, keyed by value
	leaves  map[int64]*Term   // kInit/kHavoc/kMemHavoc, keyed by k*numLeafTags+tag
	nodes   map[nodeKey]*Term // kOp, kPred, kLoad, kStore
	code    map[codeKey]*Term // kCodeAddr
	memInit *Term             // kMemInit singleton
	n       int               // next term ID
	zero    *Term
	one     *Term
}

func newInterner() *interner {
	it := &interner{
		consts: make(map[int64]*Term, 64),
		leaves: make(map[int64]*Term, 64),
		nodes:  make(map[nodeKey]*Term, 256),
		code:   make(map[codeKey]*Term, 8),
	}
	it.zero = it.Const(0)
	it.one = it.Const(1)
	return it
}

// size returns the number of distinct terms interned so far.
func (it *interner) size() int { return it.n }

func tid(t *Term) int32 {
	if t == nil {
		return -1
	}
	return int32(t.id)
}

func (it *interner) newTerm(kind termKind, op isa.Opcode, a, b, c *Term, k int64, blk *prog.Block) *Term {
	t := &Term{id: it.n, kind: kind, op: op, a: a, b: b, c: c, k: k, blk: blk}
	it.n++
	return t
}

func (it *interner) mk(kind termKind, op isa.Opcode, a, b, c *Term, k int64, blk *prog.Block) *Term {
	switch kind {
	case kConst:
		if t, ok := it.consts[k]; ok {
			return t
		}
		t := it.newTerm(kind, op, a, b, c, k, blk)
		it.consts[k] = t
		return t
	case kInit, kHavoc, kMemHavoc:
		tag := int64(leafInit)
		switch kind {
		case kHavoc:
			tag = leafHavoc
		case kMemHavoc:
			tag = leafMemHavoc
		}
		key := k*numLeafTags + tag
		if t, ok := it.leaves[key]; ok {
			return t
		}
		t := it.newTerm(kind, op, a, b, c, k, blk)
		it.leaves[key] = t
		return t
	case kMemInit:
		if it.memInit == nil {
			it.memInit = it.newTerm(kind, op, a, b, c, k, blk)
		}
		return it.memInit
	case kCodeAddr:
		key := codeKey{blk: blk, k: k}
		if t, ok := it.code[key]; ok {
			return t
		}
		t := it.newTerm(kind, op, a, b, c, k, blk)
		it.code[key] = t
		return t
	default: // kOp, kPred, kLoad, kStore: interior nodes, k and blk unused
		key := nodeKey{ko: uint32(kind)<<16 | uint32(op), a: tid(a), b: tid(b), c: tid(c)}
		if t, ok := it.nodes[key]; ok {
			return t
		}
		t := it.newTerm(kind, op, a, b, c, k, blk)
		it.nodes[key] = t
		return t
	}
}

// Const returns the constant term for v.
func (it *interner) Const(v int64) *Term { return it.mk(kConst, isa.NOP, nil, nil, nil, v, nil) }

// Init returns the term for register r's value at package entry.
func (it *interner) Init(r isa.Reg) *Term {
	return it.mk(kInit, isa.NOP, nil, nil, nil, int64(r), nil)
}

// Havoc returns the unknown value of register r after the path's seq-th
// call. Both versions of a path havoc with the same sequence numbers, so
// matching positions yield matching terms.
func (it *interner) Havoc(seq int, r isa.Reg) *Term {
	return it.mk(kHavoc, isa.NOP, nil, nil, nil, int64(seq)<<8|int64(r), nil)
}

// MemInit returns the memory chain bottom at package entry.
func (it *interner) MemInit() *Term { return it.mk(kMemInit, isa.NOP, nil, nil, nil, 0, nil) }

// MemHavoc returns the unknown memory state after the path's seq-th call.
func (it *interner) MemHavoc(seq int) *Term {
	return it.mk(kMemHavoc, isa.NOP, nil, nil, nil, int64(seq), nil)
}

// CodeAddr returns the term for a block's code address (LA, call return
// addresses). blk may be nil for pre-resolved numeric targets, in which
// case the raw target value disambiguates.
func (it *interner) CodeAddr(blk *prog.Block, target int64) *Term {
	if blk != nil {
		target = 0
	}
	return it.mk(kCodeAddr, isa.NOP, nil, nil, nil, target, blk)
}

// intFoldable reports whether op is an integer ALU operation with exact
// machine semantics the interner folds; FP operations stay uninterpreted
// (both versions build identical FP terms, so folding buys nothing and
// risks diverging from the machine's float behavior).
func intFoldable(op isa.Opcode) bool {
	switch op {
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.SLT, isa.SEQ:
		return true
	}
	return false
}

// foldInt mirrors cpu.Machine.exec exactly: division and remainder by
// zero yield 0, shifts mask their amount to 6 bits, SHR is logical, SLT
// is signed.
func foldInt(op isa.Opcode, a, b int64) int64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.MUL:
		return a * b
	case isa.DIV:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.REM:
		if b == 0 {
			return 0
		}
		return a % b
	case isa.AND:
		return a & b
	case isa.OR:
		return a | b
	case isa.XOR:
		return a ^ b
	case isa.SHL:
		return a << uint(b&63)
	case isa.SHR:
		return int64(uint64(a) >> uint(b&63))
	case isa.SLT:
		if a < b {
			return 1
		}
		return 0
	case isa.SEQ:
		if a == b {
			return 1
		}
		return 0
	}
	panic("equiv: foldInt on non-integer opcode " + op.String())
}

// commutative reports ops whose operands the interner may canonically
// reorder. The passes never rewrite operand order inside an instruction,
// but canonical form makes address terms built through different
// lowering orders compare equal.
func commutative(op isa.Opcode) bool {
	switch op {
	case isa.ADD, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SEQ:
		return true
	}
	return false
}

// Op2 builds (or folds) a two-operand ALU term. Register-immediate forms
// are lowered to their register-register opcode with a constant operand
// before reaching here.
func (it *interner) Op2(op isa.Opcode, a, b *Term) *Term {
	if intFoldable(op) {
		if a.kind == kConst && b.kind == kConst {
			return it.Const(foldInt(op, a.k, b.k))
		}
		if commutative(op) {
			// Constants to the right; otherwise order by ID. This is what
			// addrSplit relies on to find `base + const` shapes.
			if a.kind == kConst || (b.kind != kConst && a.id > b.id) {
				a, b = b, a
			}
		}
		// Algebraic identities. Only rewrites that hold for every operand
		// value under the machine's exact semantics are applied.
		switch op {
		case isa.ADD, isa.OR, isa.XOR, isa.SHL, isa.SHR:
			if b.kind == kConst && b.k == 0 {
				return a
			}
		case isa.SUB:
			if b.kind == kConst && b.k == 0 {
				return a
			}
			if a == b {
				return it.zero
			}
		case isa.MUL:
			if b.kind == kConst {
				if b.k == 1 {
					return a
				}
				if b.k == 0 {
					return it.zero
				}
			}
		case isa.AND:
			if b.kind == kConst && b.k == 0 {
				return it.zero
			}
			if a == b {
				return a
			}
		case isa.DIV:
			if b.kind == kConst && b.k == 1 {
				return a
			}
		case isa.REM:
			if b.kind == kConst && b.k == 1 {
				return it.zero
			}
		case isa.SLT:
			if a == b {
				return it.zero
			}
		case isa.SEQ:
			if a == b {
				return it.one
			}
		}
		if op == isa.OR && a == b {
			return a
		}
		if op == isa.XOR && a == b {
			return it.zero
		}
	}
	return it.mk(kOp, op, a, b, nil, 0, nil)
}

// Op1 builds a one-operand (conversion) term; uninterpreted.
func (it *interner) Op1(op isa.Opcode, a *Term) *Term {
	return it.mk(kOp, op, a, nil, nil, 0, nil)
}

// Pred builds the canonical predicate for a conditional branch. op must
// be isa.BEQ (equality) or isa.BLT (signed less-than); BNE and BGE
// callers negate the sense instead, which is how layout's branch
// inversions collapse to the same predicate term.
func (it *interner) Pred(op isa.Opcode, a, b *Term) *Term {
	if a.kind == kConst && b.kind == kConst {
		hold := false
		switch op {
		case isa.BEQ:
			hold = a.k == b.k
		case isa.BLT:
			hold = a.k < b.k
		}
		if hold {
			return it.one
		}
		return it.zero
	}
	if a == b {
		if op == isa.BEQ {
			return it.one
		}
		return it.zero // x < x is false
	}
	if op == isa.BEQ && a.id > b.id {
		a, b = b, a
	}
	return it.mk(kPred, op, a, b, nil, 0, nil)
}

// addrSplit decomposes an address term into (base, constant offset):
// a constant is (nil, k), `base + const` is (base, const), anything else
// is (term, 0). Op2's canonical form keeps the constant on the right of
// commutative ADDs, so one shape test suffices.
func addrSplit(t *Term) (*Term, int64) {
	if t.kind == kConst {
		return nil, t.k
	}
	if t.kind == kOp && t.op == isa.ADD && t.b != nil && t.b.kind == kConst {
		return t.a, t.b.k
	}
	return t, 0
}

// disjointAddrs reports whether two address terms provably name different
// words. It mirrors the scheduler's static disambiguation rule — equal
// bases with different offsets cannot alias — so every reorder the
// scheduler may legally perform normalizes away, and nothing weaker is
// assumed.
func disjointAddrs(x, y *Term) bool {
	bx, ox := addrSplit(x)
	by, oy := addrSplit(y)
	return bx == by && ox != oy
}

// addrLess is the canonical store order for provably disjoint addresses:
// by base term ID (nil bases first), then offset.
func addrLess(x, y *Term) bool {
	bx, ox := addrSplit(x)
	by, oy := addrSplit(y)
	if bx != by {
		return tid(bx) < tid(by)
	}
	return ox < oy
}

// Store appends a write to a memory chain in canonical form: a write to
// the address at the top of the chain overwrites it, and a write provably
// disjoint from the top sinks below it when the canonical order says so.
// Two versions that perform the same set of pairwise-disjoint writes in
// different orders therefore build the same chain term.
func (it *interner) Store(mem, addr, val *Term) *Term {
	if mem.kind == kStore {
		if mem.b == addr {
			return it.mk(kStore, isa.NOP, mem.a, addr, val, 0, nil)
		}
		if disjointAddrs(addr, mem.b) && addrLess(addr, mem.b) {
			inner := it.Store(mem.a, addr, val)
			return it.mk(kStore, isa.NOP, inner, mem.b, mem.c, 0, nil)
		}
	}
	return it.mk(kStore, isa.NOP, mem, addr, val, 0, nil)
}

// Load reads addr from a memory chain: a store to the same address term
// forwards its value, provably disjoint stores are skipped, and the first
// may-aliasing store blocks resolution. The load term then hangs off the
// *blocker's* sub-chain, not the full chain — so a load the scheduler
// legally hoisted above a disjoint store still compares equal to its
// un-hoisted twin.
func (it *interner) Load(mem, addr *Term) *Term {
	m := mem
	for m.kind == kStore {
		if m.b == addr {
			return m.c
		}
		if !disjointAddrs(addr, m.b) {
			break // may alias: cannot see past this store
		}
		m = m.a
	}
	return it.mk(kLoad, isa.NOP, m, addr, nil, 0, nil)
}

// regImmLower maps a register-immediate ALU opcode to its register-
// register twin (the immediate becomes a constant operand).
func regImmLower(op isa.Opcode) (isa.Opcode, bool) {
	switch op {
	case isa.ADDI:
		return isa.ADD, true
	case isa.MULI:
		return isa.MUL, true
	case isa.ANDI:
		return isa.AND, true
	case isa.ORI:
		return isa.OR, true
	case isa.XORI:
		return isa.XOR, true
	case isa.SHLI:
		return isa.SHL, true
	case isa.SHRI:
		return isa.SHR, true
	case isa.SLTI:
		return isa.SLT, true
	}
	return op, false
}

// String renders the term as a depth-capped s-expression for diagnostics.
func (t *Term) String() string {
	var sb strings.Builder
	t.render(&sb, 6)
	return sb.String()
}

func (t *Term) render(sb *strings.Builder, depth int) {
	if t == nil {
		sb.WriteString("?")
		return
	}
	if depth <= 0 {
		fmt.Fprintf(sb, "#%d", t.id)
		return
	}
	switch t.kind {
	case kConst:
		fmt.Fprintf(sb, "%d", t.k)
	case kInit:
		fmt.Fprintf(sb, "%s₀", isa.Reg(t.k))
	case kHavoc:
		fmt.Fprintf(sb, "havoc(%s,call%d)", isa.Reg(t.k&0xff), t.k>>8)
	case kMemInit:
		sb.WriteString("mem₀")
	case kMemHavoc:
		fmt.Fprintf(sb, "mem(call%d)", t.k)
	case kCodeAddr:
		if t.blk != nil {
			fmt.Fprintf(sb, "&%s", t.blk)
		} else {
			fmt.Fprintf(sb, "&@%d", t.k)
		}
	case kOp:
		fmt.Fprintf(sb, "(%s ", t.op)
		t.a.render(sb, depth-1)
		if t.b != nil {
			sb.WriteString(" ")
			t.b.render(sb, depth-1)
		}
		sb.WriteString(")")
	case kLoad:
		sb.WriteString("(ld ")
		t.b.render(sb, depth-1)
		sb.WriteString(" ")
		t.a.render(sb, depth-1)
		sb.WriteString(")")
	case kStore:
		sb.WriteString("(st ")
		t.b.render(sb, depth-1)
		sb.WriteString("=")
		t.c.render(sb, depth-1)
		sb.WriteString(" ")
		t.a.render(sb, depth-1)
		sb.WriteString(")")
	case kPred:
		rel := "=="
		if t.op == isa.BLT {
			rel = "<"
		}
		sb.WriteString("(")
		t.a.render(sb, depth-1)
		sb.WriteString(rel)
		t.b.render(sb, depth-1)
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "term?%d", t.kind)
	}
}
