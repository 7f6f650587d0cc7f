package equiv

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Bounded differential execution: the concrete oracle the tests check the
// prover against. Both versions are run concretely from every entry under
// the same initial state, loops and all, for at most fuzzSteps blocks, and
// their observable event streams are compared. It cannot prove
// equivalence — it covers only the executed paths — so Prove never runs
// it; a proof either succeeds symbolically or is refused.

// fuzzSteps bounds each differential run's dynamic block count.
const fuzzSteps = 2048

// cstate is the concrete machine state of one differential run. All 48
// registers live in one int64 array with FP values held as their IEEE
// bits (exactly how FLD/FST move them); memory is sparse with unwritten
// words defaulting to a deterministic function of the address and the
// current havoc epoch.
type cstate struct {
	seed  int64
	epoch int64
	regs  [isa.NumRegs]int64
	mem   map[int64]int64
	sum   int64 // incremental XOR digest of mix(addr, val) over mem
}

func (st *cstate) get(r isa.Reg) int64 {
	if r == isa.R0 || !r.Valid() {
		return 0
	}
	return st.regs[r]
}

func (st *cstate) set(r isa.Reg, v int64) {
	if r == isa.R0 || !r.Valid() {
		return
	}
	st.regs[r] = v
}

func (st *cstate) load(addr int64) int64 {
	if v, ok := st.mem[addr]; ok {
		return v
	}
	return mix(st.seed, 50+st.epoch, addr)
}

func (st *cstate) store(addr, v int64) {
	if old, ok := st.mem[addr]; ok {
		st.sum ^= mix(addr, old)
	}
	st.sum ^= mix(addr, v)
	st.mem[addr] = v
}

// memSum is an order-independent digest of the written words plus the
// havoc epoch: two memories with the same digest read identically at
// every address under this model. The digest is maintained incrementally
// by store, so reading it is O(1).
func (st *cstate) memSum() int64 {
	return st.sum ^ mix(60, st.epoch)
}

// cevent is one observable event of a concrete run, the differential twin
// of event.
type cevent struct {
	kind     evKind
	callee   *prog.Func
	target   *prog.Block
	jr       int64
	regs     [isa.NumRegs]int64
	memSum   int64
	consumes []isa.Reg
}

// cstep executes one non-terminator instruction with the machine's exact
// semantics (integer ops via foldInt, FP via IEEE bits, FDIV by zero
// yielding 0).
func cstep(st *cstate, in prog.Ins) {
	if lop, ok := regImmLower(in.Op); ok {
		st.set(in.Rd, foldInt(lop, st.get(in.Rs1), in.Imm))
		return
	}
	switch in.Op {
	case isa.NOP:
	case isa.LI:
		st.set(in.Rd, in.Imm)
	case isa.LA:
		st.set(in.Rd, codeAddrVal(in.BlockTarget, in.Target))
	case isa.LD, isa.FLD:
		st.set(in.Rd, st.load(st.get(in.Rs1)+in.Imm))
	case isa.ST, isa.FST:
		st.store(st.get(in.Rs1)+in.Imm, st.get(in.Rs2))
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		a := math.Float64frombits(uint64(st.get(in.Rs1)))
		b := math.Float64frombits(uint64(st.get(in.Rs2)))
		var r float64
		switch in.Op {
		case isa.FADD:
			r = a + b
		case isa.FSUB:
			r = a - b
		case isa.FMUL:
			r = a * b
		case isa.FDIV:
			if b != 0 {
				r = a / b
			}
		}
		st.set(in.Rd, int64(math.Float64bits(r)))
	case isa.FSLT:
		a := math.Float64frombits(uint64(st.get(in.Rs1)))
		b := math.Float64frombits(uint64(st.get(in.Rs2)))
		if a < b {
			st.set(in.Rd, 1)
		} else {
			st.set(in.Rd, 0)
		}
	case isa.FCVTIF:
		st.set(in.Rd, int64(math.Float64bits(float64(st.get(in.Rs1)))))
	case isa.FCVTFI:
		st.set(in.Rd, int64(math.Float64frombits(uint64(st.get(in.Rs1)))))
	default:
		if intFoldable(in.Op) {
			st.set(in.Rd, foldInt(in.Op, st.get(in.Rs1), st.get(in.Rs2)))
		} else if in.Op.HasRd() {
			st.set(in.Rd, mix(6, int64(in.Op), st.get(in.Rs1), in.Imm))
		}
	}
}

// crun executes one version (ref selects the snapshot, otherwise the live
// function) from entry under trial's initial state. It returns the event
// stream and whether the run reached a terminal event within fuzzSteps.
func (s *Snapshot) crun(entry *prog.Block, trial int, ref bool) ([]cevent, bool) {
	seed := int64(trial)*0x9e37 + 1
	st := &cstate{seed: seed, mem: make(map[int64]int64, 32)}
	for _, r := range allRegs {
		st.regs[r] = initFor(trial, r)
	}
	var events []cevent
	b := entry
	calls := int64(0)
	for steps := 0; steps < fuzzSteps; steps++ {
		var v view
		if ref {
			var ok bool
			if v, ok = s.blocks[b]; !ok {
				// The reference can only leave the snapshot through an exit
				// arc; record it as such defensively.
				return append(events, cevent{kind: evExit, target: b, regs: st.regs, memSum: st.memSum()}), true
			}
		} else {
			v = liveView(b)
		}
		for _, in := range v.insts {
			cstep(st, in)
		}
		var to *prog.Block
		switch v.kind {
		case prog.TermHalt:
			return append(events, cevent{kind: evHalt, memSum: st.memSum()}), true
		case prog.TermRet:
			return append(events, cevent{kind: evRet, regs: st.regs, memSum: st.memSum()}), true
		case prog.TermJumpReg:
			return append(events, cevent{kind: evJr, jr: st.get(v.rs1), regs: st.regs, memSum: st.memSum()}), true
		case prog.TermCall:
			ev := cevent{kind: evCall, callee: v.callee, regs: st.regs, memSum: st.memSum()}
			ev.regs[isa.RRA] = codeAddrVal(v.next, 0)
			events = append(events, ev)
			for _, r := range allRegs {
				st.regs[r] = mix(seed, 100+calls, int64(r))
			}
			st.mem = make(map[int64]int64, 32)
			st.sum = 0
			st.epoch = calls + 1
			calls++
			to = v.next
		case prog.TermFall:
			to = v.next
		case prog.TermBranch:
			a, c := st.get(v.rs1), st.get(v.rs2)
			taken := false
			switch v.cmpOp {
			case isa.BEQ:
				taken = a == c
			case isa.BNE:
				taken = a != c
			case isa.BLT:
				taken = a < c
			case isa.BGE:
				taken = a >= c
			}
			if taken {
				to = v.taken
			} else {
				to = v.next
			}
		}
		if to == nil || to.Fn != s.fn {
			return append(events, cevent{kind: evExit, target: to, regs: st.regs, memSum: st.memSum(), consumes: v.consumes}), true
		}
		b = to
	}
	return events, false
}

// fuzz runs trials differential trials over every entry and returns the
// first divergence, or nil when all trials agree.
func (s *Snapshot) fuzz(trials int) *Counterexample {
	for trial := 0; trial < trials; trial++ {
		for _, entry := range s.entries {
			refEvents, refDone := s.crun(entry, trial, true)
			optEvents, optDone := s.crun(entry, trial, false)
			if ce := ccompare(refEvents, refDone, optEvents, optDone); ce != nil {
				ce.Package = s.name
				ce.Entry = entry.String()
				ce.Kind = "fuzz"
				ce.Witness = fmt.Sprintf("differential trial %d", trial)
				return ce
			}
		}
	}
	return nil
}

// ccompare checks two concrete event streams. When either side ran out of
// step budget only the common prefix is comparable; trailing differences
// are not evidence either way and are accepted.
func ccompare(ref []cevent, refDone bool, opt []cevent, optDone bool) *Counterexample {
	n := len(ref)
	if len(opt) < n {
		n = len(opt)
	}
	for i := 0; i < n; i++ {
		re, oe := &ref[i], &opt[i]
		if re.kind != oe.kind {
			return &Counterexample{RefTerm: re.kind.String(), OptTerm: oe.kind.String(),
				Detail: fmt.Sprintf("concrete event %d differs in kind", i)}
		}
		switch re.kind {
		case evCall:
			if re.callee != oe.callee {
				return &Counterexample{Detail: fmt.Sprintf("concrete call event %d targets different functions", i)}
			}
		case evExit:
			if re.target != oe.target {
				return &Counterexample{Detail: fmt.Sprintf("concrete exit event %d transfers to different blocks", i)}
			}
		case evJr:
			if re.jr != oe.jr {
				return &Counterexample{RefTerm: fmt.Sprint(re.jr), OptTerm: fmt.Sprint(oe.jr),
					Detail: fmt.Sprintf("concrete indirect-jump target differs at event %d", i)}
			}
		}
		live := allRegs
		switch re.kind {
		case evHalt:
			live = nil
		case evExit:
			if len(re.consumes) > 0 {
				live = re.consumes
			}
		}
		for _, r := range live {
			if r == isa.R0 {
				continue
			}
			if re.regs[r] != oe.regs[r] {
				return &Counterexample{Reg: r.String(),
					RefTerm: fmt.Sprint(re.regs[r]), OptTerm: fmt.Sprint(oe.regs[r]),
					Detail: fmt.Sprintf("concrete register divergence at %s event %d", re.kind, i)}
			}
		}
		if re.memSum != oe.memSum {
			return &Counterexample{Detail: fmt.Sprintf("concrete memory divergence at %s event %d", re.kind, i)}
		}
	}
	if refDone && optDone && len(ref) != len(opt) {
		return &Counterexample{RefTerm: fmt.Sprintf("%d events", len(ref)), OptTerm: fmt.Sprintf("%d events", len(opt)),
			Detail: "concrete runs perform different numbers of observable events"}
	}
	return nil
}
