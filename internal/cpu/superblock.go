package cpu

// Superblock tier (tier 1) of the block-structured timed simulation.
//
// Tier 0 (blockcache.go) dispatches one decoded basic block at a time:
// execBlock re-loads operand registers through geti/setf accessors,
// re-derives issue masks from the FU class, and returns to the dispatch
// loop after every block. Hot code is dominated by a few short cycles of
// blocks — the same kernels the paper's superblock packer extracts — so
// almost every dispatch takes a transition the cache has already chained.
//
// Tier 1 promotes a block whose dispatch count crosses a hotness
// threshold into a *superblock*: the chain of blocks reached by following
// its observed majority successors (fall/taken bias counters maintained
// by the dispatch loop), flattened into one specialized slot array. Each
// slot carries everything execution needs, pre-resolved at promotion
// time: direct register-file indices (register classes validated once,
// so the executor indexes IntRegs/FPRegs with a mask instead of accessor
// calls and bounds checks), the packed issue-state masks for its FU
// class, its latency, and static I-line crossing marks (inside a trace
// every line boundary is known at build time; only trace entry compares
// lines dynamically). Conditional terminators inside the trace become
// *guards*: the branch executes and predicts exactly as in tier 0, and
// if control leaves the stitched path the executor side-exits back to
// the dispatch loop at the block that actually ran last. A trace whose
// successor returns to its own head loops internally without leaving the
// executor at all.
//
// Equivalence contract: tier 1 is bit-identical to tier 0 (and hence to
// the step loop) in TimingStats, machine state and DataHash, *and* in
// BlockCacheStats — every internal trace transition follows a chain
// pointer tier 0 would have taken, so it counts as Chained, and every
// side exit re-enters the dispatch switch exactly where tier 0 would
// have. Promotion only specializes instructions whose semantics it can
// reproduce exactly; anything else (cross-class register operands,
// discarded loads, invalid opcodes) pins the block to tier 0 with noSB.
//
// Faults: a fault inside a trace restores machine state only — retired
// count, PC on the faulting slot, and the cache and trace counters — as
// blockFault does in tier 0. The timing stats of a failed run are
// discarded, so neither tier credits its partial pass to them.
//
// Invalidation: superblocks hang off their head block, so Bind/
// Invalidate dropping the decoded blocks drops every trace with them.
// Demotion: a trace that keeps side-exiting (guards failing on more than
// half its passes after a warm-up) is torn down and its head pinned to
// tier 0 — the branch bias it was stitched on no longer holds.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/isa"
	"repro/internal/prog"
)

// DefaultSuperblockThreshold is the number of tier-0 dispatches after
// which a block is promoted into a superblock trace.
const DefaultSuperblockThreshold = 16

const (
	// maxSuperblockBlocks and maxSuperblockSlots cap trace size; traces
	// past either cap simply end early with a normal exit.
	maxSuperblockBlocks = 64
	maxSuperblockSlots  = 256

	// demoteMinExecs is the warm-up before the side-exit ratio is
	// consulted: a trace with execs >= this whose *first* guard has
	// missed on more than half of them is demoted — the bias it was
	// stitched on no longer holds. Later guard misses are not evidence
	// against the trace: the specialized prefix still ran.
	demoteMinExecs = 64
)

// Terminator-slot flags, continuing the slotNeedRs1.. group from
// blockcache.go. Exactly one of slotExit / slotLoop / neither (internal
// guard) is set on a terminator slot.
const (
	slotCtl  = 1 << 4 // terminator: control handling + guard/exit logic
	slotExit = 1 << 5 // final slot: always leaves the trace
	slotLoop = 1 << 6 // back-edge to the trace head: loop internally
)

// SuperblockStats counts tier-1 activity for one BlockCache.
type SuperblockStats struct {
	Promoted     uint64 // traces built
	Demoted      uint64 // traces torn down for side-exiting
	SideExits    uint64 // guard misses that left a trace early
	ChainedInsts uint64 // instructions retired inside traces
}

// sslot is one specialized slot of a superblock: functional opcode,
// pre-resolved register indices, timing metadata and the packed
// issue-state masks, flattened so the executor never consults isa.Meta,
// the decoded block, or the instruction image.
type sslot struct {
	kind  uint8 // isa.Opcode selecting the functional body (NOP: timing only)
	lat   uint8
	flags uint8
	rd    uint8 // scoreboardDummy when the slot defines no register
	rs1   uint8
	rs2   uint8

	// tr1/tr2 are the scoreboard indices consulted for operand
	// readiness: the architectural register when the operand is read,
	// readyDummy (an always-zero entry) otherwise, so readiness is two
	// unconditional loads instead of two data-dependent branches.
	tr1 uint8
	tr2 uint8

	need uint64 // packed issue subtract mask for this slot's FU class
	hi   uint64 // packed issue high-bit mask
	imm  int64  // immediate / static branch target / LA target
	pc   int64  // absolute slot address
	next int64  // guard: expected next PC after a terminator slot
}

// Scoreboard dummy indices, past every architectural register:
// scoreboardDummy is written by slots that define no register (making
// the executor's scoreboard update unconditional) and never read;
// readyDummy is read by operands that don't exist (always zero — no
// slot ever writes it) and never written.
const (
	scoreboardDummy = 63
	readyDummy      = 62
)

// superblock is one promoted trace.
type superblock struct {
	entry  int64
	head   *block
	slots  []sslot
	owners []slotOwner // per slot, parallel to slots; touched only at exits

	totalPkg  uint64 // package slots per full pass (loop traces)
	loopFetch bool   // loop-back re-entry crosses an I-line

	// firstGuard is the slot index of the earliest guard (a terminator
	// that can side-exit), -1 when the trace has none. A side exit past
	// the first guard still ran a specialized prefix, so only first-
	// guard misses argue the stitch direction itself was wrong.
	firstGuard int

	execs      uint64 // passes started (dispatches + internal loop-backs)
	sideExits  uint64
	earlyExits uint64 // side exits at the first guard
}

// slotOwner is a slot's cold exit record: the constituent block that owns
// it, handed back to the dispatch loop, and the package slots of every
// block completed through it, matching tier 0's per-completed-block
// coverage accounting.
type slotOwner struct {
	blk *block
	pkg uint64
}

// intReg reports whether r names an integer register (R0 included).
func intReg(r isa.Reg) bool { return r < isa.NumIntRegs }

// promote builds a superblock headed by b, or pins b to tier 0 (noSB)
// when any instruction on the trace resists specialization. The trace
// follows the successor with the larger observed bias at each stitched
// terminator — along the already-chained pointer, so tier 0 would count
// the same transition as Chained — and ends at dynamic-target
// terminators, unbiased successors, size caps, or a revisit (a revisit
// of the head marks an internal loop instead). The first pass chooses
// the blocks; the second sizes the trace once and specializes into it.
func (bc *BlockCache) promote(b *block) *superblock {
	if !b.hasTerm {
		b.noSB = true
		return nil
	}
	var chain [maxSuperblockBlocks]*block
	nb, n, loop := 0, 0, false
	for cur := b; ; {
		chain[nb] = cur
		nb++
		n += len(cur.insts)
		var nxt *block
		switch cur.insts[len(cur.insts)-1].Op {
		case isa.RET, isa.JR, isa.HALT:
			// Dynamic target (or program end): the trace ends here.
		case isa.JMP, isa.CALL:
			nxt = cur.taken
		default: // conditional branch: follow the observed bias
			if cur.takenSeen > cur.fallSeen {
				nxt = cur.taken
			} else {
				nxt = cur.fall
			}
		}
		if nxt == b {
			loop = true
		} else if nxt != nil && nxt.hasTerm && nb < maxSuperblockBlocks &&
			n+len(nxt.insts) <= maxSuperblockSlots && !slices.Contains(chain[:nb], nxt) {
			cur = nxt
			continue
		}
		break
	}

	sb := &superblock{
		entry: b.entry, head: b, firstGuard: -1,
		slots: make([]sslot, n), owners: make([]slotOwner, n),
	}
	k := 0
	for i, cur := range chain[:nb] {
		sb.totalPkg += cur.pkgN
		for j := range cur.insts {
			s, ok := specializeSlot(&cur.insts[j], cur.slots[j], cur.entry+int64(j), j == len(cur.insts)-1)
			if !ok {
				b.noSB = true
				return nil
			}
			s.tr1, s.tr2 = readyDummy, readyDummy
			if s.flags&slotNeedRs1 != 0 {
				s.tr1 = s.rs1
			}
			if s.flags&slotNeedRs2 != 0 {
				s.tr2 = s.rs2
			}
			if s.flags&slotWritesRd == 0 {
				s.rd = scoreboardDummy
			}
			// Constituent entry: tier 0 compares lines at block entry;
			// inside a trace the preceding slot's line is known, so the
			// crossing is static.
			if j == 0 && k > 0 && cur.entry>>3 != sb.slots[k-1].pc>>3 {
				s.flags |= slotNewLine
			}
			sb.slots[k] = s
			sb.owners[k] = slotOwner{cur, sb.totalPkg}
			k++
		}
		// A guard expects the next member's entry: the chained successor
		// is keyed by the PC it is entered at.
		last := &sb.slots[k-1]
		switch {
		case i+1 < nb:
			last.next = chain[i+1].entry
		case loop:
			last.flags |= slotLoop
			last.next = b.entry
			sb.loopFetch = sb.entry>>3 != last.pc>>3
		default:
			last.flags |= slotExit
		}
	}
	if nb > 1 || loop {
		sb.firstGuard = len(b.insts) - 1 // the head's terminator
	}
	b.sb = sb
	bc.SB.Promoted++
	return sb
}

// specializeSlot translates one decoded instruction into its specialized
// slot, validating register classes so the executor can index the
// register files directly. It reports false when the instruction's exact
// semantics need the generic path (tier 0 then keeps the block).
func specializeSlot(in *isa.Inst, si slotInfo, pc int64, isTerm bool) (sslot, bool) {
	s := sslot{
		kind: uint8(in.Op), lat: si.lat, flags: si.flags,
		rd: uint8(in.Rd), rs1: uint8(in.Rs1), rs2: uint8(in.Rs2),
		need: issueNeed(si.fu), hi: issueHigh(si.fu),
		imm: in.Imm, pc: pc,
	}
	if isTerm {
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			if !intReg(in.Rs1) || !intReg(in.Rs2) {
				return s, false
			}
			s.imm = in.Target
		case isa.JMP, isa.CALL:
			s.imm = in.Target
		case isa.RET:
			// Tier 0 folds the implicit RRA read into operand readiness.
			s.rs1 = uint8(isa.RRA)
			s.flags |= slotNeedRs1
		case isa.JR:
			if !intReg(in.Rs1) {
				return s, false
			}
		case isa.HALT:
		default:
			return s, false
		}
		s.flags |= slotCtl
		return s, true
	}
	switch in.Op {
	case isa.NOP:
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SLT, isa.SEQ:
		if !intReg(in.Rs1) || !intReg(in.Rs2) || !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP) // discarded result: timing only
		}
	case isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SHLI, isa.SHRI, isa.SLTI:
		if !intReg(in.Rs1) || !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP)
		}
	case isa.LI:
		if !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP)
		}
	case isa.LD:
		if !intReg(in.Rs1) || !intReg(in.Rd) || in.Rd == isa.R0 {
			return s, false
		}
	case isa.ST:
		if !intReg(in.Rs1) || !intReg(in.Rs2) {
			return s, false
		}
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		if !in.Rs1.IsFP() || !in.Rs2.IsFP() || !in.Rd.IsFP() {
			return s, false
		}
	case isa.FSLT:
		if !in.Rs1.IsFP() || !in.Rs2.IsFP() || !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP)
		}
	case isa.FCVTIF:
		if !intReg(in.Rs1) || !in.Rd.IsFP() {
			return s, false
		}
	case isa.FCVTFI:
		if !in.Rs1.IsFP() || !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP)
		}
	case isa.FLD:
		if !intReg(in.Rs1) || !in.Rd.IsFP() {
			return s, false
		}
	case isa.FST:
		if !intReg(in.Rs1) || !in.Rs2.IsFP() {
			return s, false
		}
	case isa.LA:
		if !intReg(in.Rd) {
			return s, false
		}
		if in.Rd == isa.R0 {
			s.kind = uint8(isa.NOP)
		}
		s.imm = in.Target
	default:
		return s, false
	}
	return s, true
}

// superFault mirrors blockFault for a fault at trace slot k: retire the
// k completed slots and park PC on the faulting instruction. chained is
// the dispatch's locally accumulated guard-pass count, flushed here so the
// cache's cumulative stats stay exact across a faulting run.
func superFault(m *Machine, bc *BlockCache, sb *superblock, k int, chained uint64, err error) error {
	bc.Stats.Chained += chained
	m.InstCount += uint64(k)
	bc.SB.ChainedInsts += uint64(k)
	m.PC = sb.slots[k].pc
	return err
}

// execSuper runs one dispatch of a superblock trace: the specialized
// flat-slot loop, guards at stitched terminators, internal loop-backs,
// and batched accounting at every exit. It returns the next PC and the
// constituent block that actually ran last, so the dispatch loop resumes
// exactly where tier 0 would have. A looping trace also exits at the
// loop-back once stop retired instructions are reached, so the dispatch
// loop can report the limit.
//
// The hot timing state — cycle, packed issue word, fetchReady, the RAW
// stall counter and the Chained count — lives in locals for the whole
// dispatch so the slot loop runs out of registers; every return path
// writes it back through flush-style assignments first.
func (t *Timing) execSuper(m *Machine, bc *BlockCache, sb *superblock, stop uint64) (int64, *block, error) {
	slots := sb.slots
	sb.execs++

	cycle := t.cycle
	free := t.free
	freeInit := t.freeInit
	fetchReady := t.fetchReady
	rawStalls := t.Stats.RAWStalls
	var chained uint64

	// Memory-op state, hoisted so the LD/ST slot bodies can run the dense
	// windows, the store hash, and the D-cache latency walk inline. The
	// dense slices are re-read from mem per access — a fallback store can
	// grow them mid-trace.
	mem := m.Mem
	fast := !mem.noFast
	l1d, l2 := t.l1d, t.l2
	ldLat := uint64(isa.LD.Latency())
	l2Lat, memLat := uint64(t.cfg.L2Latency), uint64(t.cfg.MemLatency)

	// Trace entry may land on the line fetch is already on; inside the
	// trace every crossing is a static slotNewLine mark.
	if line := sb.entry >> 3; line != t.lastLine {
		fetchReady = t.lineFetchAt(sb.entry, cycle, fetchReady)
	}

	for k := 0; k < len(slots); k++ {
		s := &slots[k]
		fl := s.flags
		if fl&slotNewLine != 0 {
			fetchReady = t.lineFetchAt(s.pc, cycle, fetchReady)
		}
		earliest := max(cycle, fetchReady)
		opndReady := max(t.regReady[s.tr1&63], t.regReady[s.tr2&63])
		if opndReady > earliest {
			rawStalls += opndReady - earliest
			earliest = opndReady
		}
		if earliest > cycle {
			cycle = earliest
			free = freeInit
		}
		f2 := free - s.need
		for f2&s.hi != s.hi {
			cycle++
			free = freeInit
			f2 = free - s.need
		}
		free = f2
		issue := cycle

		if fl&slotCtl != 0 {
			op := isa.Opcode(s.kind)
			next := s.pc + 1 // the owning block's fall-through PC
			taken := false
			condBranch := false
			switch op {
			case isa.BEQ:
				condBranch = true
				taken = m.IntRegs[s.rs1&31] == m.IntRegs[s.rs2&31]
			case isa.BNE:
				condBranch = true
				taken = m.IntRegs[s.rs1&31] != m.IntRegs[s.rs2&31]
			case isa.BLT:
				condBranch = true
				taken = m.IntRegs[s.rs1&31] < m.IntRegs[s.rs2&31]
			case isa.BGE:
				condBranch = true
				taken = m.IntRegs[s.rs1&31] >= m.IntRegs[s.rs2&31]
			case isa.JMP:
				taken = true
				next = s.imm
			case isa.CALL:
				taken = true
				m.IntRegs[isa.RRA] = s.pc + 1
				next = s.imm
			case isa.RET:
				taken = true
				next = m.IntRegs[isa.RRA]
			case isa.JR:
				taken = true
				next = m.IntRegs[s.rs1&31]
			case isa.HALT:
				m.Halted = true // a HALT slot always carries slotExit
			}
			if condBranch && taken {
				next = s.imm
			}
			if op == isa.CALL {
				// CALL implicitly defines RRA.
				if ready := issue + uint64(s.lat); t.regReady[isa.RRA] < ready {
					t.regReady[isa.RRA] = ready
				}
			}
			redirect := false
			switch {
			case condBranch:
				t.Stats.CondBranches++
				if t.onBranch != nil {
					t.onBranch(s.pc, taken, m.InstCount+uint64(k+1))
				}
				if !t.pred.PredictCond(s.pc, taken) {
					redirect = true
				} else if taken && !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.JMP:
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.CALL:
				t.pred.PushRAS(s.pc + 1)
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			case op == isa.RET:
				if !t.pred.PopRAS(next) {
					redirect = true
				}
			case op == isa.JR:
				if !t.pred.LookupBTB(s.pc, next) {
					redirect = true
				}
			}
			if redirect {
				if c := issue + uint64(t.cfg.BranchResolution); fetchReady < c {
					fetchReady = c
				}
			} else if taken {
				t.Stats.FetchBreaks++
				if fetchReady < issue+1 {
					fetchReady = issue + 1
				}
			}

			if fl&slotExit != 0 || next != s.next {
				// Trace exit: the final slot, or a guard miss (control
				// left the stitched path — a side exit).
				t.cycle, t.free, t.fetchReady = cycle, free, fetchReady
				t.Stats.RAWStalls = rawStalls
				bc.Stats.Chained += chained
				t.Stats.Insts += uint64(k + 1)
				t.Stats.PackageInsts += sb.owners[k].pkg
				m.InstCount += uint64(k + 1)
				bc.SB.ChainedInsts += uint64(k + 1)
				if fl&slotExit == 0 {
					bc.SB.SideExits++
					sb.sideExits++
					if k == sb.firstGuard {
						sb.earlyExits++
						if sb.execs >= demoteMinExecs && sb.earlyExits*2 > sb.execs {
							sb.head.sb = nil
							sb.head.noSB = true
							bc.SB.Demoted++
						}
					}
				}
				m.PC = next
				return next, sb.owners[k].blk, nil
			}
			// Guard passed: the transition follows a chain pointer tier 0
			// would have taken.
			chained++
			if fl&slotLoop != 0 {
				// Back to the head: account the completed pass and
				// restart the slot loop without leaving the executor,
				// unless the pass reached the limit.
				t.Stats.Insts += uint64(len(slots))
				t.Stats.PackageInsts += sb.totalPkg
				m.InstCount += uint64(len(slots))
				bc.SB.ChainedInsts += uint64(len(slots))
				if m.InstCount >= stop {
					t.cycle, t.free, t.fetchReady = cycle, free, fetchReady
					t.Stats.RAWStalls = rawStalls
					bc.Stats.Chained += chained
					m.PC = next
					return next, sb.owners[k].blk, nil
				}
				sb.execs++
				if sb.loopFetch {
					fetchReady = t.lineFetchAt(sb.entry, cycle, fetchReady)
				}
				k = -1
			}
			continue
		}

		lat := uint64(s.lat)
		switch isa.Opcode(s.kind) {
		case isa.NOP: // includes specialized discarded-result ops
		case isa.ADD:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] + m.IntRegs[s.rs2&31]
		case isa.SUB:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] - m.IntRegs[s.rs2&31]
		case isa.MUL:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] * m.IntRegs[s.rs2&31]
		case isa.DIV:
			if d := m.IntRegs[s.rs2&31]; d != 0 {
				m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] / d
			} else {
				m.IntRegs[s.rd&31] = 0
			}
		case isa.REM:
			if d := m.IntRegs[s.rs2&31]; d != 0 {
				m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] % d
			} else {
				m.IntRegs[s.rd&31] = 0
			}
		case isa.AND:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] & m.IntRegs[s.rs2&31]
		case isa.OR:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] | m.IntRegs[s.rs2&31]
		case isa.XOR:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] ^ m.IntRegs[s.rs2&31]
		case isa.SHL:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] << uint(m.IntRegs[s.rs2&31]&63)
		case isa.SHR:
			m.IntRegs[s.rd&31] = int64(uint64(m.IntRegs[s.rs1&31]) >> uint(m.IntRegs[s.rs2&31]&63))
		case isa.SLT:
			m.IntRegs[s.rd&31] = b2i(m.IntRegs[s.rs1&31] < m.IntRegs[s.rs2&31])
		case isa.SEQ:
			m.IntRegs[s.rd&31] = b2i(m.IntRegs[s.rs1&31] == m.IntRegs[s.rs2&31])

		case isa.ADDI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] + s.imm
		case isa.MULI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] * s.imm
		case isa.ANDI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] & s.imm
		case isa.ORI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] | s.imm
		case isa.XORI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] ^ s.imm
		case isa.SHLI:
			m.IntRegs[s.rd&31] = m.IntRegs[s.rs1&31] << uint(s.imm&63)
		case isa.SHRI:
			m.IntRegs[s.rd&31] = int64(uint64(m.IntRegs[s.rs1&31]) >> uint(s.imm&63))
		case isa.SLTI:
			m.IntRegs[s.rd&31] = b2i(m.IntRegs[s.rs1&31] < s.imm)
		case isa.LI:
			m.IntRegs[s.rd&31] = s.imm

		case isa.LD:
			addr := m.IntRegs[s.rs1&31] + s.imm
			w := addr >> 3
			var v int64
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				v = mem.data[d]
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				v = mem.stack[d]
			} else {
				var err error
				if v, err = mem.Load(addr); err != nil {
					return 0, nil, superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
				}
			}
			m.IntRegs[s.rd&31] = v
			lat = ldLat
			// Inline MRU hit (same counter/stamp updates as Access).
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				lat += l2Lat
				if !l2.Access(addr) {
					lat += memLat
				}
			}
		case isa.ST:
			addr := m.IntRegs[s.rs1&31] + s.imm
			val := m.IntRegs[s.rs2&31]
			w := addr >> 3
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				mem.data[d] = val
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				mem.stack[d] = val
			} else if err := mem.Store(addr, val); err != nil {
				return 0, nil, superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
			}
			if addr >= prog.DataBase && addr < prog.StackBase/2 {
				h := mix64(m.dataHash ^ uint64(addr))
				m.dataHash = mix64(h ^ uint64(val))
				m.dataCount++
			}
			// Stores touch the cache; the latency is hidden.
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				l2.Access(addr)
			}

		case isa.FADD:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] + m.FPRegs[(s.rs2-32)&15]
		case isa.FSUB:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] - m.FPRegs[(s.rs2-32)&15]
		case isa.FMUL:
			m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] * m.FPRegs[(s.rs2-32)&15]
		case isa.FDIV:
			if d := m.FPRegs[(s.rs2-32)&15]; d != 0 {
				m.FPRegs[(s.rd-32)&15] = m.FPRegs[(s.rs1-32)&15] / d
			} else {
				m.FPRegs[(s.rd-32)&15] = 0
			}
		case isa.FSLT:
			m.IntRegs[s.rd&31] = b2i(m.FPRegs[(s.rs1-32)&15] < m.FPRegs[(s.rs2-32)&15])
		case isa.FCVTIF:
			m.FPRegs[(s.rd-32)&15] = float64(m.IntRegs[s.rs1&31])
		case isa.FCVTFI:
			m.IntRegs[s.rd&31] = int64(m.FPRegs[(s.rs1-32)&15])
		case isa.FLD:
			addr := m.IntRegs[s.rs1&31] + s.imm
			w := addr >> 3
			var v int64
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				v = mem.data[d]
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				v = mem.stack[d]
			} else {
				var err error
				if v, err = mem.Load(addr); err != nil {
					return 0, nil, superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
				}
			}
			m.FPRegs[(s.rd-32)&15] = math.Float64frombits(uint64(v))
			lat = ldLat
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				lat += l2Lat
				if !l2.Access(addr) {
					lat += memLat
				}
			}
		case isa.FST:
			addr := m.IntRegs[s.rs1&31] + s.imm
			bits := int64(math.Float64bits(m.FPRegs[(s.rs2-32)&15]))
			w := addr >> 3
			if d := w - dataBaseWord; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.data)) {
				mem.data[d] = bits
			} else if d := stackBaseWord - 1 - w; fast && addr&7 == 0 && uint64(d) < uint64(len(mem.stack)) {
				mem.stack[d] = bits
			} else if err := mem.Store(addr, bits); err != nil {
				return 0, nil, superFault(m, bc, sb, k, chained, fmt.Errorf("cpu: pc %d: %w", s.pc, err))
			}
			if addr >= prog.DataBase && addr < prog.StackBase/2 {
				h := mix64(m.dataHash ^ uint64(addr))
				m.dataHash = mix64(h ^ uint64(bits))
				m.dataCount++
			}
			if addr>>lineShift == l1d.lastLine {
				l1d.Accesses++
				l1d.tick++
				l1d.entries[l1d.lastWay].lru = l1d.tick
			} else if !l1d.Access(addr) {
				l2.Access(addr)
			}

		case isa.LA:
			m.IntRegs[s.rd&31] = s.imm
		default:
			return 0, nil, superFault(m, bc, sb, k, chained,
				fmt.Errorf("cpu: pc %d: invalid opcode %v", s.pc, isa.Opcode(s.kind)))
		}

		// Unconditional scoreboard update: slots that define no register
		// carry the dummy index, which is never read.
		if ready := issue + lat; t.regReady[s.rd&63] < ready {
			t.regReady[s.rd&63] = ready
		}
	}
	// Unreachable: the final slot always carries slotExit or slotLoop.
	panic("cpu: superblock trace fell off its final slot")
}
