package equiv

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Config parameterizes one proof.
type Config struct {
	// MaxPaths caps the number of paths enumerated symbolically per
	// package, summed over its segments (0 = 4096). A proof that needs
	// more fails with a "budget" counterexample.
	MaxPaths int
}

func (c Config) withDefaults() Config {
	if c.MaxPaths <= 0 {
		c.MaxPaths = 4096
	}
	return c
}

// view is the walker-facing shape of a block, served either from the live
// (optimized) block or from the reference snapshot.
type view struct {
	insts    []prog.Ins
	kind     prog.TermKind
	cmpOp    isa.Opcode
	rs1, rs2 isa.Reg
	taken    *prog.Block
	next     *prog.Block
	callee   *prog.Func
	consumes []isa.Reg
}

func liveView(b *prog.Block) view {
	return view{
		insts: b.Insts, kind: b.Kind, cmpOp: b.CmpOp,
		rs1: b.Rs1, rs2: b.Rs2, taken: b.Taken, next: b.Next,
		callee: b.Callee, consumes: b.ExitConsumes,
	}
}

// Snapshot is one package function captured after installation and
// linking but before optimization: the reference the optimized version is
// proved against.
type Snapshot struct {
	fn      *prog.Func
	name    string
	phase   int
	blocks  map[*prog.Block]view // pre-optimization contents, by stable block pointer
	liveIn  map[*prog.Block]prog.RegSet
	entries []*prog.Block
	cuts    map[*prog.Block]bool // entries and in-function join blocks
}

// Package returns the snapshot's package function name.
func (s *Snapshot) Package() string { return s.name }

// Entries returns the proof entry blocks, in block-ID order.
func (s *Snapshot) Entries() []*prog.Block { return s.entries }

// Capture snapshots fn (a package function of p) for later proof. It must
// run after installation and linking — so launch arcs, linked exits and
// dummy-consumer sets are in place — and before the optimization passes
// mutate the function. entries seeds the proof's entry set (the package's
// launch-target copies); Capture completes it with every block entered
// from outside the function (linked sibling exits) and every block whose
// address escapes through an LA instruction (dynamic-launch slots,
// materialized return addresses), since those can be reached with
// arbitrary machine state too. Every entry and every block with two or
// more predecessors inside fn is a cut point: paths stop there, and the
// block is proved once as the start of its own segment.
func Capture(p *prog.Program, fn *prog.Func, entries []*prog.Block) *Snapshot {
	return CaptureAll(p, []*prog.Func{fn}, [][]*prog.Block{entries})[0]
}

// CaptureAll is Capture for every package function fns[i] of p, seeded
// with entries[i], in one pass over the program: the predecessor lists
// and the index of escaped block addresses are built once for all.
func CaptureAll(p *prog.Program, fns []*prog.Func, entries [][]*prog.Block) []*Snapshot {
	p.ComputePreds()
	targets := make(map[*prog.Func][]*prog.Block)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				if bt := b.Insts[i].BlockTarget; bt != nil {
					targets[bt.Fn] = append(targets[bt.Fn], bt)
				}
			}
		}
	}
	snaps := make([]*Snapshot, len(fns))
	for i, fn := range fns {
		snaps[i] = capture(fn, slices.Concat(entries[i], targets[fn]))
	}
	return snaps
}

// capture snapshots fn once the program's predecessor lists are current;
// entries holds its seeds and its blocks whose address escapes.
func capture(fn *prog.Func, entries []*prog.Block) *Snapshot {
	s := &Snapshot{
		fn:     fn,
		name:   fn.Name,
		phase:  fn.PhaseID,
		blocks: make(map[*prog.Block]view, len(fn.Blocks)),
	}
	// The passes mutate blocks in place, so the snapshot copies the two
	// slices they edit; the block pointers themselves stay stable.
	for _, b := range fn.Blocks {
		v := liveView(b)
		v.insts = append([]prog.Ins(nil), b.Insts...)
		v.consumes = append([]isa.Reg(nil), b.ExitConsumes...)
		s.blocks[b] = v
	}
	// Live-in sets for loop-cut comparison come from the same per-function
	// liveness the sink pass consults, so everything sink may legally kill
	// is dead under them and nothing more.
	s.liveIn = prog.ComputeLiveness(fn).In

	seen := make(map[*prog.Block]bool, len(entries)+4)
	add := func(b *prog.Block) {
		if b != nil && b.Fn == fn && !seen[b] {
			seen[b] = true
			s.entries = append(s.entries, b)
		}
	}
	for _, b := range entries {
		add(b)
	}
	add(fn.Entry())
	s.cuts = make(map[*prog.Block]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		joins := 0
		for _, pr := range b.Preds() {
			if pr.Fn != fn {
				add(b)
			} else {
				joins++
			}
		}
		s.cuts[b] = joins >= 2
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].ID < s.entries[j].ID })
	for _, b := range s.entries {
		s.cuts[b] = true
	}
	return s
}

// allRegs lists every architectural register except the hardwired zero.
var allRegs = func() []isa.Reg {
	out := make([]isa.Reg, 0, isa.NumRegs-1)
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		out = append(out, r)
	}
	return out
}()

// symState is the symbolic machine state: one term per register plus the
// memory chain. It is copied by value at path forks.
type symState struct {
	regs [isa.NumRegs]*Term
	mem  *Term
}

func (st *symState) get(it *interner, r isa.Reg) *Term {
	if r == isa.R0 || !r.Valid() {
		return it.zero
	}
	return st.regs[r]
}

func (st *symState) set(r isa.Reg, t *Term) {
	if r == isa.R0 || !r.Valid() {
		return
	}
	st.regs[r] = t
}

// stepIns executes one non-terminator instruction symbolically, mirroring
// cpu.Machine.exec: integer ALU ops fold exactly, loads and stores go
// through the alias-aware chain, FP ops stay uninterpreted.
func stepIns(it *interner, st *symState, in prog.Ins) {
	if lop, ok := regImmLower(in.Op); ok {
		st.set(in.Rd, it.Op2(lop, st.get(it, in.Rs1), it.Const(in.Imm)))
		return
	}
	switch in.Op {
	case isa.NOP:
	case isa.LI:
		st.set(in.Rd, it.Const(in.Imm))
	case isa.LA:
		st.set(in.Rd, it.CodeAddr(in.BlockTarget, in.Target))
	case isa.LD, isa.FLD:
		addr := it.Op2(isa.ADD, st.get(it, in.Rs1), it.Const(in.Imm))
		st.set(in.Rd, it.Load(st.mem, addr))
	case isa.ST, isa.FST:
		addr := it.Op2(isa.ADD, st.get(it, in.Rs1), it.Const(in.Imm))
		st.mem = it.Store(st.mem, addr, st.get(it, in.Rs2))
	case isa.FCVTIF, isa.FCVTFI:
		st.set(in.Rd, it.Op1(in.Op, st.get(it, in.Rs1)))
	default:
		if intFoldable(in.Op) || in.Op == isa.FADD || in.Op == isa.FSUB ||
			in.Op == isa.FMUL || in.Op == isa.FDIV || in.Op == isa.FSLT {
			st.set(in.Rd, it.Op2(in.Op, st.get(it, in.Rs1), st.get(it, in.Rs2)))
			return
		}
		// Defensive: an opcode that should not appear mid-block. Model it
		// as an opaque operation so both versions diverge (or agree)
		// identically rather than crashing the prover.
		if in.Op.HasRd() {
			var a, b *Term
			if in.Op.HasRs1() {
				a = st.get(it, in.Rs1)
			} else {
				a = it.Const(in.Imm)
			}
			if in.Op.HasRs2() {
				b = st.get(it, in.Rs2)
			}
			st.set(in.Rd, it.mk(kOp, in.Op, a, b, it.Const(in.Imm), 0, nil))
		}
	}
}

// havoc forgets everything a call may change: every register (the callee
// has no ABI contract) and all of memory. Matching call positions on the
// two versions use the same sequence number, so their havocs unify.
func (st *symState) havoc(it *interner, seq int) {
	for _, r := range allRegs {
		st.regs[r] = it.Havoc(seq, r)
	}
	st.mem = it.MemHavoc(seq)
}

// canonBranch canonicalizes a conditional terminator to a base predicate
// (== or signed <) plus the sense connecting it to the taken arc. BNE and
// BGE negate the sense rather than the predicate, which is exactly how a
// layout-inverted branch collapses onto its original's term.
func canonBranch(it *interner, st *symState, v view) (pred *Term, takenIfTrue bool) {
	a, b := st.get(it, v.rs1), st.get(it, v.rs2)
	switch v.cmpOp {
	case isa.BEQ:
		return it.Pred(isa.BEQ, a, b), true
	case isa.BNE:
		return it.Pred(isa.BEQ, a, b), false
	case isa.BLT:
		return it.Pred(isa.BLT, a, b), true
	case isa.BGE:
		return it.Pred(isa.BLT, a, b), false
	}
	return it.zero, true // malformed CmpOp; prog.Verify rejects these upstream
}

// evKind classifies one observable path event.
type evKind uint8

const (
	evCall evKind = iota // call into a non-inlined function
	evRet                // return through RRA
	evHalt               // machine halt
	evJr                 // indirect jump
	evExit               // transfer to a block outside the package function
	evCut                // arrival at a cut point (entry or join block)
)

func (k evKind) String() string {
	switch k {
	case evCall:
		return "call"
	case evRet:
		return "ret"
	case evHalt:
		return "halt"
	case evJr:
		return "jr"
	case evExit:
		return "exit"
	case evCut:
		return "cut"
	default:
		return fmt.Sprintf("ev?%d", uint8(k))
	}
}

// event is one observable point on a path. The comparator decides which
// registers matter per kind (everything for calls/returns/indirect jumps,
// the dummy-consumer set for exits, the reference live-in set for cuts,
// nothing for halts).
type event struct {
	kind     evKind
	callee   *prog.Func
	target   *prog.Block
	jr       *Term
	regs     [isa.NumRegs]*Term
	mem      *Term
	consumes []isa.Reg
}

// prover carries one package proof.
type prover struct {
	snap      *Snapshot
	cfg       Config
	it        *interner
	cert      *Certificate
	ce        *Counterexample
	pathsDone int
	fresh     symState             // freshState, built once per proof
	refBuf    []event              // scratch for the reference replay's events
	starts    []*prog.Block        // segment starts, in proof order
	started   map[*prog.Block]bool // the blocks in starts
}

// freshState is the state every segment starts from: each register and
// memory hold their uninterpreted initial values.
func freshState(it *interner) symState {
	var st symState
	st.regs[0] = it.zero
	for _, r := range allRegs {
		st.regs[r] = it.Init(r)
	}
	st.mem = it.MemInit()
	return st
}

// start queues b as a segment start, once.
func (pv *prover) start(b *prog.Block) {
	if !pv.started[b] {
		pv.started[b] = true
		pv.starts = append(pv.starts, b)
	}
}

// Prove checks the optimized package function against its snapshot and
// returns the certificate. The proof runs segment by segment: each entry,
// and each join block a proved path reaches, is walked once from a fresh
// symbolic state up to the next cut points. A nil error means every
// path was proved within Config.MaxPaths; a non-nil error is always an
// *Error matching ErrNotEquivalent, carrying the structured
// counterexample (Kind "budget" when the paths ran out).
func Prove(snap *Snapshot, cfg Config) (*Certificate, error) {
	cfg = cfg.withDefaults()
	pv := &prover{snap: snap, cfg: cfg, it: newInterner(), started: make(map[*prog.Block]bool)}
	pv.fresh = freshState(pv.it)
	pv.cert = &Certificate{Package: snap.name, Phase: snap.phase, Entries: len(snap.entries)}

	for _, entry := range snap.entries {
		pv.start(entry)
	}
	for i := 0; i < len(pv.starts); i++ {
		w := &optWalker{
			pv:     pv,
			start:  pv.starts[i],
			onPath: make(map[*prog.Block]bool, 16),
			cons:   make(map[*Term]bool, 8),
		}
		if !w.walk(w.start, pv.fresh, 0) {
			break // counterexample found
		}
	}
	pv.cert.PathsProved = pv.pathsDone
	pv.cert.Cuts = len(pv.starts) - len(snap.entries)
	pv.cert.Terms = pv.it.size()
	pv.cert.Equivalent = pv.ce == nil
	if pv.ce != nil {
		return pv.cert, &Error{Package: snap.name, Cert: pv.cert, Counterexamples: []Counterexample{*pv.ce}}
	}
	return pv.cert, nil
}

// optWalker enumerates the optimized function's paths from one segment
// start to the next cut points by DFS, forking at every undetermined
// branch and accumulating the fork decisions as predicate constraints.
type optWalker struct {
	pv        *prover
	start     *prog.Block
	onPath    map[*prog.Block]bool
	trail     []trailStep
	events    []event
	cons      map[*Term]bool
	consOrder []*Term
}

// trailStep is one block of the current path and the branch decision
// taken there: '+' taken, '-' fallthrough, 0 unconditional. The trail is
// rendered into Counterexample.Path only when a path fails.
type trailStep struct {
	id       int
	decision byte
}

// renderTrail formats the trail as Counterexample.Path ("b12+", "b12-", "b7").
func renderTrail(trail []trailStep) []string {
	out := make([]string, len(trail))
	for i, s := range trail {
		out[i] = "b" + strconv.Itoa(s.id)
		if s.decision != 0 {
			out[i] += string(s.decision)
		}
	}
	return out
}

// walk explores from b with state st; it returns false when exploration
// must stop globally (a counterexample, the budget's included).
func (w *optWalker) walk(b *prog.Block, st symState, calls int) bool {
	evMark, trMark := len(w.events), len(w.trail)
	w.onPath[b] = true
	ok := w.walkBlock(b, st, calls)
	delete(w.onPath, b)
	w.events = w.events[:evMark]
	w.trail = w.trail[:trMark]
	return ok
}

func (w *optWalker) walkBlock(b *prog.Block, st symState, calls int) bool {
	pv := w.pv
	it := pv.it
	w.trail = append(w.trail, trailStep{id: b.ID})
	v := liveView(b)
	for _, in := range v.insts {
		stepIns(it, &st, in)
	}
	switch v.kind {
	case prog.TermHalt:
		return w.finish(event{kind: evHalt, mem: st.mem})
	case prog.TermRet:
		return w.finish(event{kind: evRet, regs: st.regs, mem: st.mem})
	case prog.TermJumpReg:
		return w.finish(event{kind: evJr, jr: st.get(it, v.rs1), regs: st.regs, mem: st.mem})
	case prog.TermCall:
		ev := event{kind: evCall, callee: v.callee, regs: st.regs, mem: st.mem}
		ev.regs[isa.RRA] = it.CodeAddr(v.next, 0)
		w.events = append(w.events, ev)
		st.havoc(it, calls)
		calls++
		return w.transition(v.next, v, st, calls)
	case prog.TermFall:
		return w.transition(v.next, v, st, calls)
	case prog.TermBranch:
		pred, tif := canonBranch(it, &st, v)
		if pred.kind == kConst {
			to, decision := v.next, byte('-')
			if (pred == it.one) == tif {
				to, decision = v.taken, '+'
			}
			w.trail[len(w.trail)-1].decision = decision
			return w.transition(to, v, st, calls)
		}
		if hold, decided := w.cons[pred]; decided {
			to, decision := v.next, byte('-')
			if hold == tif {
				to, decision = v.taken, '+'
			}
			w.trail[len(w.trail)-1].decision = decision
			return w.transition(to, v, st, calls)
		}
		// Fork: taken side first, then fallthrough.
		w.cons[pred] = tif
		w.consOrder = append(w.consOrder, pred)
		w.trail[len(w.trail)-1].decision = '+'
		if !w.transition(v.taken, v, st, calls) {
			delete(w.cons, pred)
			w.consOrder = w.consOrder[:len(w.consOrder)-1]
			return false
		}
		w.cons[pred] = !tif
		w.trail[len(w.trail)-1].decision = '-'
		ok := w.transition(v.next, v, st, calls)
		delete(w.cons, pred)
		w.consOrder = w.consOrder[:len(w.consOrder)-1]
		return ok
	}
	return w.finish(event{kind: evHalt, mem: st.mem}) // unreachable TermKind
}

// transition follows one arc out of the current block: an external target
// ends the path with an exit event, a cut point ends it with a cut event,
// anything else recurses. Every cycle of the snapshot passes a cut point,
// so a revisit of any other block is a cycle the passes made.
func (w *optWalker) transition(to *prog.Block, from view, st symState, calls int) bool {
	if to == nil || to.Fn != w.pv.snap.fn {
		return w.finish(event{kind: evExit, target: to, regs: st.regs, mem: st.mem, consumes: from.consumes})
	}
	if w.pv.snap.cuts[to] {
		return w.finish(event{kind: evCut, target: to, regs: st.regs, mem: st.mem})
	}
	if w.onPath[to] {
		return w.fail(&Counterexample{Kind: "event-shape",
			Detail: fmt.Sprintf("optimized path revisits %s, which is not a cut point", to)})
	}
	return w.walk(to, st, calls)
}

// finish completes one optimized path: replay the reference under the
// path's constraints and compare the event sequences.
func (w *optWalker) finish(terminal event) bool {
	pv := w.pv
	if pv.pathsDone >= pv.cfg.MaxPaths {
		return w.fail(&Counterexample{Kind: "budget",
			Detail: fmt.Sprintf("the proof needs more than %d paths", pv.cfg.MaxPaths)})
	}
	w.events = append(w.events, terminal)
	// The terminal belongs to this completed path only; sibling forks in
	// the enclosing walkBlock frame reuse the shared events slice.
	defer func() { w.events = w.events[:len(w.events)-1] }()
	if n := len(w.trail); n > pv.cert.MaxPathBlocks {
		pv.cert.MaxPathBlocks = n
	}
	refEvents, ce := pv.replay(w.start, w.cons)
	if ce == nil {
		ce = pv.compare(refEvents, w.events)
	}
	if ce != nil {
		return w.fail(ce)
	}
	pv.pathsDone++
	if terminal.kind == evCut {
		pv.start(terminal.target)
	}
	return true
}

// fail records ce, located on the current path, as the proof's
// counterexample and stops exploration.
func (w *optWalker) fail(ce *Counterexample) bool {
	ce.Package = w.pv.snap.name
	ce.Entry = w.start.String()
	ce.Path = renderTrail(w.trail)
	w.pv.attachWitness(ce, w.consOrder, w.cons)
	w.pv.ce = ce
	return false
}

// replay executes the reference snapshot from the segment start up to
// the next cut points, deciding every branch by constant folding or by
// the optimized path's constraints. An undecidable branch means the
// optimized version never evaluated this predicate — a dropped,
// retargeted or rewritten branch — and is itself a divergence. The
// returned slice is valid until the next replay call.
func (pv *prover) replay(start *prog.Block, cons map[*Term]bool) ([]event, *Counterexample) {
	it := pv.it
	st := pv.fresh
	events := pv.refBuf[:0]
	defer func() { pv.refBuf = events }()
	calls := 0
	var fromConsumes []isa.Reg
	for depth, to := 0, start; ; depth++ {
		// At depth 0, to is the segment start: it is executed, not cut.
		if to == nil || to.Fn != pv.snap.fn {
			events = append(events, event{kind: evExit, target: to, regs: st.regs, mem: st.mem, consumes: fromConsumes})
			return events, nil
		}
		if depth > 0 && pv.snap.cuts[to] {
			events = append(events, event{kind: evCut, target: to, regs: st.regs, mem: st.mem})
			return events, nil
		}
		if depth > len(pv.snap.blocks) {
			return events, &Counterexample{Kind: "event-shape",
				Detail: fmt.Sprintf("reference replay exceeded %d blocks without a path cut", depth)}
		}
		v, ok := pv.snap.blocks[to]
		if !ok {
			return events, &Counterexample{Kind: "event-shape",
				Detail: fmt.Sprintf("reference replay reached %s, which is not in the pre-optimization snapshot", to)}
		}
		for _, in := range v.insts {
			stepIns(it, &st, in)
		}
		switch v.kind {
		case prog.TermHalt:
			events = append(events, event{kind: evHalt, mem: st.mem})
			return events, nil
		case prog.TermRet:
			events = append(events, event{kind: evRet, regs: st.regs, mem: st.mem})
			return events, nil
		case prog.TermJumpReg:
			events = append(events, event{kind: evJr, jr: st.get(it, v.rs1), regs: st.regs, mem: st.mem})
			return events, nil
		case prog.TermCall:
			ev := event{kind: evCall, callee: v.callee, regs: st.regs, mem: st.mem}
			ev.regs[isa.RRA] = it.CodeAddr(v.next, 0)
			events = append(events, ev)
			st.havoc(it, calls)
			calls++
			to = v.next
		case prog.TermFall:
			to = v.next
		case prog.TermBranch:
			pred, tif := canonBranch(it, &st, v)
			hold := pred == it.one
			if pred.kind != kConst {
				var decided bool
				if hold, decided = cons[pred]; !decided {
					return events, &Counterexample{
						Kind:    "unresolved-branch",
						RefTerm: pred.String(),
						Detail: fmt.Sprintf("reference branch at %s (%s %s, %s) was never decided by the optimized version",
							to, v.cmpOp, v.rs1, v.rs2),
					}
				}
			}
			if hold == tif {
				to = v.taken
			} else {
				to = v.next
			}
		}
		fromConsumes = v.consumes
	}
}

// compare checks two event sequences for observational equality. The
// reference event picks the live set: the exiting block's dummy-consumer
// registers for exits (everything when the set is absent, mirroring
// prog.ComputeLiveness's treatment), the reference live-in set at cuts,
// every register at calls, returns and indirect jumps.
func (pv *prover) compare(ref, opt []event) *Counterexample {
	n := len(ref)
	if len(opt) < n {
		n = len(opt)
	}
	for i := 0; i < n; i++ {
		re, oe := &ref[i], &opt[i]
		if re.kind != oe.kind {
			return &Counterexample{
				Kind:    "event-shape",
				RefTerm: re.kind.String(),
				OptTerm: oe.kind.String(),
				Detail:  fmt.Sprintf("observable event %d differs in kind", i),
			}
		}
		switch re.kind {
		case evCall:
			if re.callee != oe.callee {
				rn, on := "<nil>", "<nil>"
				if re.callee != nil {
					rn = re.callee.Name
				}
				if oe.callee != nil {
					on = oe.callee.Name
				}
				return &Counterexample{Kind: "callee", RefTerm: rn, OptTerm: on,
					Detail: fmt.Sprintf("call event %d targets different functions", i)}
			}
			if re.regs[isa.RRA] != oe.regs[isa.RRA] {
				return &Counterexample{Kind: "return-address",
					RefTerm: re.regs[isa.RRA].String(), OptTerm: oe.regs[isa.RRA].String(),
					refT: re.regs[isa.RRA], optT: oe.regs[isa.RRA],
					Detail: fmt.Sprintf("call event %d resumes at different blocks", i)}
			}
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evRet:
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evJr:
			if re.jr != oe.jr {
				return &Counterexample{Kind: "jump-target",
					RefTerm: re.jr.String(), OptTerm: oe.jr.String(),
					refT: re.jr, optT: oe.jr,
					Detail: fmt.Sprintf("indirect jump event %d targets differ", i)}
			}
			if ce := cmpRegs(re, oe, allRegs, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evHalt:
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evExit:
			if re.target != oe.target {
				return &Counterexample{Kind: "exit-target",
					RefTerm: re.target.String(), OptTerm: oe.target.String(),
					Detail: fmt.Sprintf("exit event %d transfers to different original blocks", i)}
			}
			live := allRegs
			if len(re.consumes) > 0 {
				live = re.consumes
			}
			if ce := cmpRegs(re, oe, live, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		case evCut:
			if re.target != oe.target {
				return &Counterexample{Kind: "loop-point",
					RefTerm: re.target.String(), OptTerm: oe.target.String(),
					Detail: fmt.Sprintf("cut %d reaches different blocks", i)}
			}
			var live []isa.Reg
			for _, r := range allRegs {
				if pv.snap.liveIn[re.target].Has(r) {
					live = append(live, r)
				}
			}
			if ce := cmpRegs(re, oe, live, i); ce != nil {
				return ce
			}
			if ce := cmpMem(re, oe, i); ce != nil {
				return ce
			}
		}
	}
	if len(ref) != len(opt) {
		return &Counterexample{
			Kind:    "event-shape",
			RefTerm: fmt.Sprintf("%d events", len(ref)),
			OptTerm: fmt.Sprintf("%d events", len(opt)),
			Detail:  "the versions perform different numbers of observable events",
		}
	}
	return nil
}

func cmpRegs(re, oe *event, live []isa.Reg, i int) *Counterexample {
	for _, r := range live {
		if r == isa.R0 {
			continue
		}
		if re.regs[r] != oe.regs[r] {
			return &Counterexample{Kind: "reg", Reg: r.String(),
				RefTerm: re.regs[r].String(), OptTerm: oe.regs[r].String(),
				refT: re.regs[r], optT: oe.regs[r],
				Detail: fmt.Sprintf("live-out register diverges at %s event %d", re.kind, i)}
		}
	}
	return nil
}

func cmpMem(re, oe *event, i int) *Counterexample {
	if re.mem != oe.mem {
		return &Counterexample{Kind: "mem",
			RefTerm: re.mem.String(), OptTerm: oe.mem.String(),
			refT: re.mem, optT: oe.mem,
			Detail: fmt.Sprintf("memory effect chain diverges at %s event %d", re.kind, i)}
	}
	return nil
}
