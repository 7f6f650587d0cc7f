// Package cpu simulates the paper's evaluation machine: a functional VPIR
// emulator plus a cycle-level timing model of a 10-stage, 8-issue in-order
// EPIC pipeline with caches and branch prediction (Table 2 of the paper).
package cpu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// StepInfo describes one retired instruction for observers (the Hot Spot
// Detector, the timing model, coverage accounting).
type StepInfo struct {
	PC     int64
	Inst   isa.Inst
	NextPC int64
	// Taken is meaningful for control instructions: whether the
	// conditional branch was taken (always true for JMP/CALL/RET).
	Taken bool
	// MemAddr is the effective address for memory operations, else -1.
	MemAddr int64
}

// Machine is the functional emulator. It executes a linearized image
// in-order and architecturally exactly; the timing model layers cycle
// accounting on top of the retirement stream.
type Machine struct {
	Img *prog.Image
	Mem *Memory

	IntRegs [isa.NumIntRegs]int64
	FPRegs  [isa.NumFPRegs]float64
	PC      int64
	Halted  bool

	// InstCount counts retired instructions.
	InstCount uint64

	// dataHash accumulates a hash of data-segment stores for functional
	// equivalence checks; code-address values (return addresses spilled to
	// the stack) deliberately do not feed it.
	dataHash  uint64
	dataCount uint64
}

// NewMachine builds a machine for an image, loads the program's data
// segment and initializes the stack pointer.
func NewMachine(img *prog.Image) *Machine {
	m := &Machine{Img: img, Mem: NewMemorySized(len(img.Prog.Data)), PC: img.Entry}
	for i, v := range img.Prog.Data {
		// Data segment initialization cannot fail: addresses are aligned
		// and positive by construction.
		if err := m.Mem.Store(prog.DataBase+int64(i)*8, v); err != nil {
			panic(fmt.Sprintf("cpu: data init: %v", err))
		}
	}
	m.IntRegs[isa.RSP] = prog.StackBase
	m.dataHash = fnv64offset
	return m
}

const fnv64offset = 14695981039346656037

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer that
// costs three multiplies/shifts instead of the byte-at-a-time FNV loop the
// hash used previously (store hashing was ~8% of a timed run).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *Machine) hashStore(addr, val int64) {
	// Only data-segment stores participate: the stack holds spilled return
	// addresses whose numeric values differ between original and packed
	// code images.
	if addr < prog.DataBase || addr >= prog.StackBase/2 {
		return
	}
	// Chaining through the running hash keeps the digest order-sensitive,
	// as the functional-equivalence check requires.
	h := m.dataHash
	h = mix64(h ^ uint64(addr))
	h = mix64(h ^ uint64(val))
	m.dataHash = h
	m.dataCount++
}

// DataHash returns the running hash of data-segment stores and the number
// of such stores. Two runs that compute the same results agree on both.
func (m *Machine) DataHash() (hash uint64, stores uint64) {
	return m.dataHash, m.dataCount
}

func (m *Machine) geti(r isa.Reg) int64 {
	if r == isa.R0 {
		return 0
	}
	return m.IntRegs[r]
}

func (m *Machine) seti(r isa.Reg, v int64) {
	if r != isa.R0 && r < isa.NumIntRegs {
		m.IntRegs[r] = v
	}
}

func (m *Machine) getf(r isa.Reg) float64 {
	if !r.IsFP() {
		return 0
	}
	return m.FPRegs[r-isa.NumIntRegs]
}

func (m *Machine) setf(r isa.Reg, v float64) {
	if r.IsFP() {
		m.FPRegs[r-isa.NumIntRegs] = v
	}
}

// Step executes one instruction, filling info if non-nil. It returns an
// error for architectural faults (bad PC, unaligned access); a halted
// machine returns an error as well.
func (m *Machine) Step(info *StepInfo) error {
	if m.Halted {
		return fmt.Errorf("cpu: step on halted machine")
	}
	if m.PC < 0 || m.PC >= int64(len(m.Img.Code)) {
		return fmt.Errorf("cpu: PC %d outside code image (len %d)", m.PC, len(m.Img.Code))
	}
	var scratch StepInfo
	if info == nil {
		info = &scratch
	}
	return m.exec(m.Img.Code[m.PC], info)
}

// exec executes one decoded instruction whose validity checks (halted
// state, PC bounds) have already been done by the caller, filling info
// unconditionally. Run hoists those checks and the code-slice load out of
// its loop and calls exec directly.
func (m *Machine) exec(in isa.Inst, info *StepInfo) error {
	next := m.PC + 1
	taken := false
	memAddr := int64(-1)

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.seti(in.Rd, m.geti(in.Rs1)+m.geti(in.Rs2))
	case isa.SUB:
		m.seti(in.Rd, m.geti(in.Rs1)-m.geti(in.Rs2))
	case isa.MUL:
		m.seti(in.Rd, m.geti(in.Rs1)*m.geti(in.Rs2))
	case isa.DIV:
		if d := m.geti(in.Rs2); d != 0 {
			m.seti(in.Rd, m.geti(in.Rs1)/d)
		} else {
			m.seti(in.Rd, 0)
		}
	case isa.REM:
		if d := m.geti(in.Rs2); d != 0 {
			m.seti(in.Rd, m.geti(in.Rs1)%d)
		} else {
			m.seti(in.Rd, 0)
		}
	case isa.AND:
		m.seti(in.Rd, m.geti(in.Rs1)&m.geti(in.Rs2))
	case isa.OR:
		m.seti(in.Rd, m.geti(in.Rs1)|m.geti(in.Rs2))
	case isa.XOR:
		m.seti(in.Rd, m.geti(in.Rs1)^m.geti(in.Rs2))
	case isa.SHL:
		m.seti(in.Rd, m.geti(in.Rs1)<<uint(m.geti(in.Rs2)&63))
	case isa.SHR:
		m.seti(in.Rd, int64(uint64(m.geti(in.Rs1))>>uint(m.geti(in.Rs2)&63)))
	case isa.SLT:
		m.seti(in.Rd, b2i(m.geti(in.Rs1) < m.geti(in.Rs2)))
	case isa.SEQ:
		m.seti(in.Rd, b2i(m.geti(in.Rs1) == m.geti(in.Rs2)))

	case isa.ADDI:
		m.seti(in.Rd, m.geti(in.Rs1)+in.Imm)
	case isa.MULI:
		m.seti(in.Rd, m.geti(in.Rs1)*in.Imm)
	case isa.ANDI:
		m.seti(in.Rd, m.geti(in.Rs1)&in.Imm)
	case isa.ORI:
		m.seti(in.Rd, m.geti(in.Rs1)|in.Imm)
	case isa.XORI:
		m.seti(in.Rd, m.geti(in.Rs1)^in.Imm)
	case isa.SHLI:
		m.seti(in.Rd, m.geti(in.Rs1)<<uint(in.Imm&63))
	case isa.SHRI:
		m.seti(in.Rd, int64(uint64(m.geti(in.Rs1))>>uint(in.Imm&63)))
	case isa.SLTI:
		m.seti(in.Rd, b2i(m.geti(in.Rs1) < in.Imm))
	case isa.LI:
		m.seti(in.Rd, in.Imm)

	case isa.LD:
		memAddr = m.geti(in.Rs1) + in.Imm
		v, err := m.Mem.Load(memAddr)
		if err != nil {
			return fmt.Errorf("cpu: pc %d: %w", m.PC, err)
		}
		m.seti(in.Rd, v)
	case isa.ST:
		memAddr = m.geti(in.Rs1) + in.Imm
		if err := m.Mem.Store(memAddr, m.geti(in.Rs2)); err != nil {
			return fmt.Errorf("cpu: pc %d: %w", m.PC, err)
		}
		m.hashStore(memAddr, m.geti(in.Rs2))

	case isa.FADD:
		m.setf(in.Rd, m.getf(in.Rs1)+m.getf(in.Rs2))
	case isa.FSUB:
		m.setf(in.Rd, m.getf(in.Rs1)-m.getf(in.Rs2))
	case isa.FMUL:
		m.setf(in.Rd, m.getf(in.Rs1)*m.getf(in.Rs2))
	case isa.FDIV:
		if d := m.getf(in.Rs2); d != 0 {
			m.setf(in.Rd, m.getf(in.Rs1)/d)
		} else {
			m.setf(in.Rd, 0)
		}
	case isa.FSLT:
		m.seti(in.Rd, b2i(m.getf(in.Rs1) < m.getf(in.Rs2)))
	case isa.FCVTIF:
		m.setf(in.Rd, float64(m.geti(in.Rs1)))
	case isa.FCVTFI:
		m.seti(in.Rd, int64(m.getf(in.Rs1)))
	case isa.FLD:
		memAddr = m.geti(in.Rs1) + in.Imm
		v, err := m.Mem.Load(memAddr)
		if err != nil {
			return fmt.Errorf("cpu: pc %d: %w", m.PC, err)
		}
		m.setf(in.Rd, math.Float64frombits(uint64(v)))
	case isa.FST:
		memAddr = m.geti(in.Rs1) + in.Imm
		bits := int64(math.Float64bits(m.getf(in.Rs2)))
		if err := m.Mem.Store(memAddr, bits); err != nil {
			return fmt.Errorf("cpu: pc %d: %w", m.PC, err)
		}
		m.hashStore(memAddr, bits)

	case isa.BEQ:
		taken = m.geti(in.Rs1) == m.geti(in.Rs2)
	case isa.BNE:
		taken = m.geti(in.Rs1) != m.geti(in.Rs2)
	case isa.BLT:
		taken = m.geti(in.Rs1) < m.geti(in.Rs2)
	case isa.BGE:
		taken = m.geti(in.Rs1) >= m.geti(in.Rs2)
	case isa.JMP:
		taken = true
		next = in.Target
	case isa.CALL:
		taken = true
		m.seti(isa.RRA, m.PC+1)
		next = in.Target
	case isa.RET:
		taken = true
		next = m.geti(isa.RRA)
	case isa.JR:
		taken = true
		next = m.geti(in.Rs1)
	case isa.LA:
		m.seti(in.Rd, in.Target)
	case isa.HALT:
		m.Halted = true
	default:
		return fmt.Errorf("cpu: pc %d: invalid opcode %v", m.PC, in.Op)
	}
	if isa.Meta[in.Op].IsCondBranch && taken {
		next = in.Target
	}

	info.PC = m.PC
	info.Inst = in
	info.NextPC = next
	info.Taken = taken
	info.MemAddr = memAddr
	m.PC = next
	m.InstCount++
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ErrInstLimit matches (errors.Is) every *LimitError.
var ErrInstLimit = errors.New("cpu: instruction limit reached")

// LimitError reports a run stopped by its instruction limit before it
// halted: Limit is the bound and PC the next instruction to execute.
type LimitError struct {
	Limit uint64
	PC    int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("cpu: instruction limit %d reached at pc %d", e.Limit, e.PC)
}

// Is makes every LimitError match ErrInstLimit.
func (e *LimitError) Is(target error) bool { return target == ErrInstLimit }

// Run executes until halt or until limit instructions have retired (0 means
// no limit). observe, if non-nil, is called for every retired instruction.
// It returns an error for architectural faults, or a *LimitError when the
// limit is hit before the program halts; the limit is exact per
// instruction.
//
// The loop is fused with the per-instruction dispatch: the code slice, its
// bounds and the halted/observer checks are hoisted out of the retirement
// path rather than re-derived inside Step for every instruction.
func (m *Machine) Run(limit uint64, observe func(*StepInfo)) error {
	var info StepInfo
	code := m.Img.Code
	n := int64(len(code))
	if observe == nil {
		for !m.Halted {
			if limit > 0 && m.InstCount >= limit {
				return &LimitError{Limit: limit, PC: m.PC}
			}
			pc := m.PC
			if uint64(pc) >= uint64(n) {
				return fmt.Errorf("cpu: PC %d outside code image (len %d)", pc, n)
			}
			if err := m.exec(code[pc], &info); err != nil {
				return err
			}
		}
		return nil
	}
	for !m.Halted {
		if limit > 0 && m.InstCount >= limit {
			return &LimitError{Limit: limit, PC: m.PC}
		}
		pc := m.PC
		if uint64(pc) >= uint64(n) {
			return fmt.Errorf("cpu: PC %d outside code image (len %d)", pc, n)
		}
		if err := m.exec(code[pc], &info); err != nil {
			return err
		}
		observe(&info)
	}
	return nil
}
