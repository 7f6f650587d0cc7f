package equiv_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/workload"
)

// The mutation corpus: each entry injects one distinct semantic bug into
// an optimized package — the kinds of miscompiles a broken opt pass would
// produce — and the test asserts translation validation rejects every one
// with a usable counterexample. Mutations are applied through aliased
// slices and terminator fields on purpose: the injected bugs are exactly
// the in-place block mutations a pass performs.

// target is one package prepared for mutation: snapshotted pre-opt, then
// run through the real pass stack.
type target struct {
	fn   *prog.Func
	snap *equiv.Snapshot
}

// buildTargets packs perl's input A at scale 1 and returns its proved
// packages (packTargets) after the full real pass stack (merge, sink,
// layout, schedule): the scaled config with sinking turned on. Each call
// builds from scratch: mutations destroy the program they are applied to.
func buildTargets(t *testing.T) []*target {
	t.Helper()
	b, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.InputByName("A")
	if err != nil {
		t.Fatal(err)
	}
	in.Scale = 1
	cfg := core.ScaledConfig()
	cfg.EnableSink = true
	targets, err := packTargets(b.Build(in), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("workload built no packages")
	}
	return targets
}

// packTargets packs p under cfg with the optimization passes held back,
// then does what PackageStage does with Equiv on: it snapshots every
// package, runs cfg's passes on each and proves it against its snapshot.
// It returns the packages in installation order, or the pipeline's error,
// or the first refutation.
func packTargets(p *prog.Program, cfg core.Config) ([]*target, error) {
	ps := opt.Passes{
		Merge: cfg.EnableMerge, Sink: cfg.EnableSink, Layout: cfg.EnableLayout, Schedule: cfg.EnableSchedule,
		Approx: cfg.ApproxWeights, Sched: cfg.Sched, EntrySeedWeight: cfg.EntrySeedWeight,
	}
	cfg.EnableMerge, cfg.EnableSink, cfg.EnableLayout, cfg.EnableSchedule = false, false, false, false
	cfg.Equiv = false
	out, err := core.Run(cfg, cpu.DefaultConfig(), p)
	if err != nil {
		return nil, err
	}
	regByPhase := make(map[int]*region.Region, len(out.Regions))
	for _, r := range out.Regions {
		regByPhase[r.PhaseID] = r
	}
	pkgs := out.Pack.Packages
	entries := make([][]*prog.Block, len(pkgs))
	snaps := make([]*equiv.Snapshot, len(pkgs))
	for i, pk := range pkgs {
		for _, c := range pk.Entries {
			entries[i] = append(entries[i], c)
		}
		snaps[i] = equiv.Capture(out.Packed, pk.Fn, entries[i])
	}
	var targets []*target
	for i, pk := range pkgs {
		r := regByPhase[pk.PhaseID]
		if r == nil {
			continue
		}
		if err := opt.ApplyPasses(ps, out.Packed, pk.Fn, entries[i], r, obs.Nop{}); err != nil {
			return nil, err
		}
		if _, err := equiv.Prove(snaps[i], equiv.Config{MaxPaths: cfg.EquivMaxPaths}); err != nil {
			return nil, err
		}
		targets = append(targets, &target{fn: pk.Fn, snap: snaps[i]})
	}
	return targets, nil
}

// site identifies one mutation candidate inside a function.
type site struct {
	b *prog.Block
	i int // instruction index, -1 for terminator-level mutations
}

// instSites collects every instruction matching pred, in layout order.
func instSites(fn *prog.Func, pred func(b *prog.Block, i int) bool) []site {
	var out []site
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if pred(b, i) {
				out = append(out, site{b, i})
			}
		}
	}
	return out
}

// blockSites collects every block matching pred.
func blockSites(fn *prog.Func, pred func(b *prog.Block) bool) []site {
	var out []site
	for _, b := range fn.Blocks {
		if pred(b) {
			out = append(out, site{b, -1})
		}
	}
	return out
}

// nopOut replaces one instruction with a NOP through an aliased slice
// (deleting it without reshaping the block).
func nopOut(b *prog.Block, i int) {
	ins := b.Insts
	ins[i] = prog.Ins{Inst: isa.Inst{Op: isa.NOP}}
}

func isIntALU(op isa.Opcode) bool {
	switch op {
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR,
		isa.XOR, isa.SHL, isa.SHR, isa.SLT, isa.SEQ:
		return true
	}
	return false
}

// inFnPreds maps each block of fn to its predecessors inside fn.
func inFnPreds(fn *prog.Func) map[*prog.Block][]*prog.Block {
	preds := make(map[*prog.Block][]*prog.Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		for _, s := range b.Succs(nil) {
			if s.Fn == fn {
				preds[s] = append(preds[s], b)
			}
		}
	}
	return preds
}

// joinArcs collects every fall-through block of fn whose successor is a
// join block (two or more predecessors inside fn): an arc that is one of
// several into a cut point.
func joinArcs(fn *prog.Func) []site {
	preds := inFnPreds(fn)
	return blockSites(fn, func(b *prog.Block) bool {
		return b.Kind == prog.TermFall && b.Next != nil && len(preds[b.Next]) >= 2
	})
}

// mutation is one corpus entry: sites enumerates candidates in a
// function; apply injects the bug at one of them; check, when set, must
// accept the refutation.
type mutation struct {
	name  string
	sites func(fn *prog.Func) []site
	apply func(s site)
	check func(ce equiv.Counterexample) bool
}

var mutations = []mutation{
	{
		// A pass swaps a non-commutative operation's operands (the classic
		// wrong-operand-after-rewrite bug).
		name: "wrong-operand-swap",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				in := b.Insts[i]
				switch in.Op {
				case isa.SUB, isa.DIV, isa.REM, isa.SHL, isa.SHR, isa.SLT:
					return in.Rs1 != in.Rs2
				}
				return false
			})
		},
		apply: func(s site) {
			ins := s.b.Insts
			ins[s.i].Rs1, ins[s.i].Rs2 = ins[s.i].Rs2, ins[s.i].Rs1
		},
	},
	{
		// A store silently dropped from the schedule.
		name: "dropped-store",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				op := b.Insts[i].Op
				return op == isa.ST || op == isa.FST
			})
		},
		apply: func(s site) { nopOut(s.b, s.i) },
	},
	{
		// A live ALU instruction dropped.
		name: "dropped-alu",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				in := b.Insts[i]
				return isIntALU(in.Op) && in.Rd != isa.R0
			})
		},
		apply: func(s site) { nopOut(s.b, s.i) },
	},
	{
		// A load displaced by one word (bad address rewrite).
		name: "load-offset-off-by-8",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				op := b.Insts[i].Op
				return op == isa.LD || op == isa.FLD
			})
		},
		apply: func(s site) { s.b.Insts[s.i].Imm += 8 },
	},
	{
		// A constant materialization off by one.
		name: "wrong-immediate",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				return b.Insts[i].Op == isa.LI
			})
		},
		apply: func(s site) { s.b.Insts[s.i].Imm++ },
	},
	{
		// Store with its address and value registers exchanged.
		name: "swapped-store-operands",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				in := b.Insts[i]
				return in.Op == isa.ST && in.Rs1 != in.Rs2
			})
		},
		apply: func(s site) {
			ins := s.b.Insts
			ins[s.i].Rs1, ins[s.i].Rs2 = ins[s.i].Rs2, ins[s.i].Rs1
		},
	},
	{
		// A store duplicated at block end after its value register was
		// redefined — the duplicate writes the wrong (newer) value. Falls
		// back to a stray store one cache line away when no such site
		// exists.
		name: "duplicated-store",
		sites: func(fn *prog.Func) []site {
			redef := instSites(fn, func(b *prog.Block, i int) bool {
				in := b.Insts[i]
				if in.Op != isa.ST {
					return false
				}
				for j := i + 1; j < len(b.Insts); j++ {
					if d, ok := b.Insts[j].Defs(); ok && d == in.Rs2 {
						return true
					}
				}
				return false
			})
			if len(redef) > 0 {
				return redef
			}
			return instSites(fn, func(b *prog.Block, i int) bool {
				return b.Insts[i].Op == isa.ST
			})
		},
		apply: func(s site) {
			dup := s.b.Insts[s.i]
			for j := s.i + 1; j < len(s.b.Insts); j++ {
				if d, ok := s.b.Insts[j].Defs(); ok && d == dup.Rs2 {
					s.b.Append(dup)
					return
				}
			}
			dup.Imm += 64
			s.b.Append(dup)
		},
	},
	{
		// Two RAW-dependent instructions reordered (illegal schedule).
		name: "raw-reorder",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				if i+1 >= len(b.Insts) {
					return false
				}
				d, ok := b.Insts[i].Defs()
				if !ok {
					return false
				}
				for _, u := range b.Insts[i+1].Uses(nil) {
					if u == d {
						return true
					}
				}
				return false
			})
		},
		apply: func(s site) {
			ins := s.b.Insts
			ins[s.i], ins[s.i+1] = ins[s.i+1], ins[s.i]
		},
	},
	{
		// An extra instruction clobbering a register the exit stub hands
		// back to original code.
		name: "clobbered-live-reg",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool {
				return len(b.ExitConsumes) > 0 && b.ExitConsumes[0] != isa.R0
			})
		},
		apply: func(s site) {
			s.b.Append(prog.Ins{Inst: isa.Inst{Op: isa.LI, Rd: s.b.ExitConsumes[0], Imm: 1234567}})
		},
	},
	{
		// A "sink" of an instruction past a use of its result (illegal
		// code motion): the def is removed from its slot and re-appended
		// to a successor block, so the intervening uses read stale data.
		name: "bogus-sink",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				if b.Kind != prog.TermBranch || b.Taken == nil || b.Taken.Fn != fn {
					return false
				}
				in := b.Insts[i]
				if !isIntALU(in.Op) || in.Rd == isa.R0 {
					return false
				}
				for j := i + 1; j < len(b.Insts); j++ {
					for _, u := range b.Insts[j].Uses(nil) {
						if u == in.Rd {
							return true
						}
					}
					if d, ok := b.Insts[j].Defs(); ok && d == in.Rd {
						return false
					}
				}
				return false
			})
		},
		apply: func(s site) {
			moved := s.b.Insts[s.i]
			nopOut(s.b, s.i)
			s.b.Taken.Append(moved)
		},
	},
	{
		// Branch sense inverted without swapping the arcs.
		name: "inverted-branch-sense",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool { return b.Kind == prog.TermBranch })
		},
		apply: func(s site) {
			switch s.b.CmpOp {
			case isa.BEQ:
				s.b.CmpOp = isa.BNE
			case isa.BNE:
				s.b.CmpOp = isa.BEQ
			case isa.BLT:
				s.b.CmpOp = isa.BGE
			case isa.BGE:
				s.b.CmpOp = isa.BLT
			}
		},
	},
	{
		// Branch arcs swapped without inverting the sense.
		name: "swapped-branch-arcs",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool {
				return b.Kind == prog.TermBranch && b.Taken != b.Next
			})
		},
		apply: func(s site) { s.b.Taken, s.b.Next = s.b.Next, s.b.Taken },
	},
	{
		// Branch comparing the wrong register.
		name: "branch-operand-register",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool { return b.Kind == prog.TermBranch })
		},
		apply: func(s site) {
			r := isa.Reg(5)
			if s.b.Rs1 == r {
				r = 6
			}
			s.b.Rs1 = r
		},
	},
	{
		// An intra-function arc rewired to skip a block (lost its
		// effects). Candidates are fall or branch fallthrough arcs whose
		// target carries instructions; the skipped block keeps an arc of
		// its own to land on.
		name: "skipped-block-arc",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool {
				c := b.Next
				return (b.Kind == prog.TermFall || b.Kind == prog.TermBranch) &&
					c != nil && c.Fn == fn && c != b &&
					(c.Kind == prog.TermFall || c.Kind == prog.TermBranch) &&
					c.Next != nil && c.Next != b && len(c.Insts) > 0
			})
		},
		apply: func(s site) { s.b.Next = s.b.Next.Next },
	},
	{
		// An exit arc retargeted at a different original block.
		name: "retargeted-exit",
		sites: func(fn *prog.Func) []site {
			exits := blockSites(fn, func(b *prog.Block) bool {
				return b.Kind == prog.TermFall && b.Next != nil && b.Next.Fn != fn
			})
			// Need a second, distinct external target to rewire to.
			var out []site
			for _, s := range exits {
				for _, o := range exits {
					if o.b.Next != s.b.Next {
						out = append(out, s)
						break
					}
				}
			}
			return out
		},
		apply: func(s site) {
			for _, b := range s.b.Fn.Blocks {
				if b.Kind == prog.TermFall && b.Next != nil && b.Next.Fn != s.b.Fn && b.Next != s.b.Next {
					s.b.Next = b.Next
					return
				}
			}
		},
	},
	{
		// An LA materializing the wrong block address (bad launch stub).
		name: "la-retarget",
		sites: func(fn *prog.Func) []site {
			return instSites(fn, func(b *prog.Block, i int) bool {
				bt := b.Insts[i].BlockTarget
				return b.Insts[i].Op == isa.LA && bt != nil
			})
		},
		apply: func(s site) {
			ins := s.b.Insts
			old := ins[s.i].BlockTarget
			for _, b := range old.Fn.Blocks {
				if b != old {
					ins[s.i].BlockTarget = b
					return
				}
			}
		},
	},
	{
		// A register live into a join block clobbered on one incoming arc
		// only. The other arcs still agree, so the prover must refute it
		// at the cut, comparing the join's live-in registers.
		name: "join-live-clobber",
		sites: func(fn *prog.Func) []site {
			lv := prog.ComputeLiveness(fn)
			var out []site
			for _, s := range joinArcs(fn) {
				if lv.In[s.b.Next] != 0 {
					out = append(out, s)
				}
			}
			return out
		},
		apply: func(s site) {
			live := prog.ComputeLiveness(s.b.Fn).In[s.b.Next]
			r := isa.Reg(1)
			for !live.Has(r) {
				r++
			}
			s.b.Append(prog.Ins{Inst: isa.Inst{Op: isa.LI, Rd: r, Imm: 7654321}})
		},
		check: func(ce equiv.Counterexample) bool {
			return ce.Kind == "reg" && strings.Contains(ce.Detail, "at cut event")
		},
	},
	{
		// A store dropped in a block reachable only through a join: the
		// join itself, or a block whose chain of single predecessors
		// leads back to one. Every path to it stops at the join first, so
		// a segment that starts there (or at an entry past it) must see
		// it.
		name: "dropped-store-after-join",
		sites: func(fn *prog.Func) []site {
			preds := inFnPreds(fn)
			afterJoin := func(b *prog.Block) bool {
				for n := 0; n <= len(fn.Blocks); n++ {
					switch len(preds[b]) {
					case 0:
						return false
					case 1:
						b = preds[b][0]
					default:
						return true
					}
				}
				return false
			}
			return instSites(fn, func(b *prog.Block, i int) bool {
				op := b.Insts[i].Op
				return (op == isa.ST || op == isa.FST) && afterJoin(b)
			})
		},
		apply: func(s site) { nopOut(s.b, s.i) },
	},
	{
		// A return terminator degraded to a halt.
		name: "ret-to-halt",
		sites: func(fn *prog.Func) []site {
			return blockSites(fn, func(b *prog.Block) bool { return b.Kind == prog.TermRet })
		},
		apply: func(s site) { s.b.Kind = prog.TermHalt },
	},
}

func TestMutationCorpus(t *testing.T) {
	if len(mutations) < 19 {
		t.Fatalf("corpus has %d mutations, want >= 19", len(mutations))
	}
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			catchMutant(t, m, func([]*target) proveFn {
				return func(s *equiv.Snapshot) (*equiv.Certificate, error) { return equiv.Prove(s, equiv.Config{}) }
			})
		})
	}
}

// proveFn proves one snapshot.
type proveFn func(*equiv.Snapshot) (*equiv.Certificate, error)

// catchMutant injects m at successive sites, each on a fresh build, until
// the prover that prepare returns for that build refutes the mutated
// package, and checks the refutation is usable. prepare sees the build's
// targets before the mutation is applied.
func catchMutant(t *testing.T, m mutation, prepare func([]*target) proveFn) {
	t.Helper()
	const maxSites = 40
	for siteIdx := 0; siteIdx < maxSites; siteIdx++ {
		// Fresh build per attempt: a mutated program is spent.
		targets := buildTargets(t)
		var tg *target
		var st site
		rem := siteIdx
		for _, cand := range targets {
			ss := m.sites(cand.fn)
			if rem < len(ss) {
				tg, st = cand, ss[rem]
				break
			}
			rem -= len(ss)
		}
		if tg == nil {
			if siteIdx == 0 {
				t.Fatalf("mutation %s found no applicable site in any package", m.name)
			}
			t.Fatalf("mutation %s: exhausted %d sites, none rejected", m.name, siteIdx)
		}
		prove := prepare(targets)
		m.apply(st)
		cert, err := prove(tg.snap)
		if err == nil {
			// The bug landed on provably dead code at this site; a
			// translation validator must tolerate dead differences, so
			// try the next site.
			continue
		}
		if !errors.Is(err, equiv.ErrNotEquivalent) {
			t.Fatalf("mutation %s: error does not match ErrNotEquivalent: %v", m.name, err)
		}
		if cert == nil || cert.Equivalent {
			t.Fatalf("mutation %s: refuting certificate missing or marked equivalent", m.name)
		}
		ces := equiv.Counterexamples(err)
		if len(ces) == 0 {
			t.Fatalf("mutation %s: refutation carries no counterexample", m.name)
		}
		ce := ces[0]
		if ce.Kind == "budget" {
			// Running out of paths refuses the package without locating
			// the bug; it is not a catch.
			t.Logf("%s refused for budget at site %d: %s", m.name, siteIdx, ce.String())
			continue
		}
		if ce.Kind == "" || ce.Package == "" || ce.Entry == "" {
			t.Errorf("mutation %s: counterexample not usable: %+v", m.name, ce)
		}
		if m.check != nil && !m.check(ce) {
			t.Errorf("mutation %s: refuted, but not as expected: %s", m.name, ce.String())
		}
		t.Logf("%s caught at site %d: %s", m.name, siteIdx, ce.String())
		return
	}
	t.Fatalf("mutation %s survived %d sites undetected", m.name, maxSites)
}

// TestDeadJoinClobberProved is the join cut's control: clobbering, on one
// incoming arc only, a register that is dead at the join changes nothing
// observable, so the prover must still prove the package.
func TestDeadJoinClobberProved(t *testing.T) {
	for _, tg := range buildTargets(t) {
		for _, s := range joinArcs(tg.fn) {
			j := s.b.Next
			if !tg.snap.Cut(j) {
				continue
			}
			r := isa.Reg(1)
			for ; r < isa.NumRegs && tg.snap.LiveIn(j).Has(r); r++ {
			}
			if r == isa.NumRegs {
				continue
			}
			s.b.Append(prog.Ins{Inst: isa.Inst{Op: isa.LI, Rd: r, Imm: 7654321}})
			cert, err := equiv.Prove(tg.snap, equiv.Config{})
			if err != nil {
				t.Fatalf("clobbering %s, dead at join %s, was refuted: %v", r, j, err)
			}
			if cert.Cuts == 0 {
				t.Fatalf("the clobbered arc was not proved up to a join cut: %s", cert.Verdict())
			}
			t.Logf("clobbered %s on the arc %s -> %s: %s", r, s.b, j, cert.Verdict())
			return
		}
	}
	t.Fatal("no package has a fall-through arc into a join block")
}
