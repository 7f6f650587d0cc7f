package equiv_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// concreteTrials is how many concrete initial states the soundness check
// runs from every entry: the differential executor's six structured
// states, then pseudo-random ones.
const concreteTrials = 24

// TestProvedCertificatesHoldConcretely cross-checks the prover against
// concrete execution. Seeded random programs are packed and every package
// is proved (packTargets); each proved package is then run, the snapshot
// against the optimized function, from each entry on
// concreteTrials states with the differential executor, and the event
// streams must agree. The optimized packages of a clean pipeline are
// equivalent, so each proved package is also re-proved under random
// in-place bugs: whatever the prover still proves must still agree
// concretely. A prover that certified a real divergence fails here.
func TestProvedCertificatesHoldConcretely(t *testing.T) {
	programs, mutantsPer := 16, 32
	if testing.Short() {
		programs, mutantsPer = 4, 8
	}
	checked, mutantsProved, mutantsRefuted := 0, 0, 0
	for trial := 0; trial < programs; trial++ {
		r := rand.New(rand.NewSource(int64(3000 + trial)))
		p := workload.Random(r)
		cfg := core.Variants()[trial%4].Apply(core.ScaledConfig())
		targets, err := packTargets(p, cfg)
		switch {
		case errors.Is(err, core.ErrNoPhases):
			t.Logf("program %d: no regions: %v", trial, err)
			continue
		case errors.Is(err, core.ErrNoPackages):
			t.Logf("program %d: no packages", trial)
			continue
		case err != nil:
			t.Fatalf("program %d: %v", trial, err)
		}
		for _, tg := range targets {
			s := tg.snap
			if err := equiv.Differential(s, concreteTrials); err != nil {
				t.Fatalf("program %d: %s proved equivalent, but concretely: %v", trial, s.Package(), err)
			}
			checked++
			for i := 0; i < mutantsPer; i++ {
				undo := mutate(r, s.Func())
				if undo == nil {
					continue
				}
				if _, err := equiv.Prove(s, equiv.Config{}); err != nil {
					mutantsRefuted++
				} else {
					mutantsProved++
					if derr := equiv.Differential(s, concreteTrials); derr != nil {
						t.Fatalf("program %d: %s mutant %d proved equivalent, but concretely: %v", trial, s.Package(), i, derr)
					}
				}
				undo()
			}
		}
	}
	if checked == 0 {
		t.Fatal("no random program yielded a proved package")
	}
	t.Logf("%d proved packages hold concretely; of their mutants %d were refuted and %d proved and held", checked, mutantsRefuted, mutantsProved)
}

// mutate injects one random in-place bug into fn and returns the undo,
// or nil when the chosen block offers no site. Instruction lists keep
// their length, so undo restores them through the same slice.
func mutate(r *rand.Rand, fn *prog.Func) (undo func()) {
	op := r.Intn(8)
	b := fn.Blocks[r.Intn(len(fn.Blocks))]
	var exit *prog.Block
	if op == 7 {
		// Exit stubs carry no instructions; clobber a register the exit
		// hands back to original code in the block that jumps to it.
		b, exit = exitFeeder(r, fn)
		if b == nil {
			return nil
		}
	}
	ins := b.Insts
	saved := slices.Clone(ins)
	rs1, taken, next := b.Rs1, b.Taken, b.Next
	undo = func() {
		copy(ins, saved)
		b.Rs1, b.Taken, b.Next = rs1, taken, next
	}
	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(isa.NumRegs-1)) }
	switch {
	case op < 5 && len(ins) > 0:
		i := r.Intn(len(ins))
		switch op {
		case 0:
			ins[i].Imm += int64(1 + r.Intn(16))
		case 1:
			ins[i].Rs1 = reg()
		case 2:
			ins[i].Rd = reg()
		case 3:
			ins[i] = prog.Ins{Inst: isa.Inst{Op: isa.NOP}}
		case 4:
			if i+1 >= len(ins) {
				return nil
			}
			ins[i], ins[i+1] = ins[i+1], ins[i]
		}
	case op == 5 && b.Kind == prog.TermBranch:
		b.Taken, b.Next = b.Next, b.Taken
	case op == 6 && b.Kind == prog.TermBranch:
		b.Rs1 = reg()
	case op == 7:
		rd := exit.ExitConsumes[r.Intn(len(exit.ExitConsumes))]
		ins[len(ins)-1] = prog.Ins{Inst: isa.Inst{Op: isa.LI, Rd: rd, Imm: r.Int63()}}
	default:
		return nil
	}
	return undo
}

// exitFeeder picks a random block of fn that has instructions and an arc
// to one of fn's exit stubs, or nil when there is none.
func exitFeeder(r *rand.Rand, fn *prog.Func) (b, exit *prog.Block) {
	var feeders, exits []*prog.Block
	for _, c := range fn.Blocks {
		if len(c.Insts) == 0 {
			continue
		}
		for _, s := range []*prog.Block{c.Taken, c.Next} {
			if s != nil && s.Fn == fn && len(s.ExitConsumes) > 0 {
				feeders, exits = append(feeders, c), append(exits, s)
			}
		}
	}
	if len(feeders) == 0 {
		return nil, nil
	}
	i := r.Intn(len(feeders))
	return feeders[i], exits[i]
}
