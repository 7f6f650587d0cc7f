package verify_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pack"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/report"
	"repro/internal/verify"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Fixtures.

// tinyProgram builds a minimal well-formed program: main holding one
// two-instruction halt block. The cfg/* mutations each break it one way.
func tinyProgram() (*prog.Program, *prog.Func, *prog.Block) {
	p := prog.New()
	fn := p.AddFunc("main")
	p.Main = fn
	b := p.NewBlock(fn) // TermHalt by default
	b.Append(
		prog.Ins{Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: 1}},
		prog.Ins{Inst: isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1}},
	)
	return p, fn, b
}

// packedFixture runs the real pipeline (scaled config: inference, linking,
// layout, scheduling) on gzip/A at scale 1 and returns the packed program
// and package result, asserted verifier-clean so every package mutation
// starts from a green baseline.
func packedFixture(t *testing.T) (*prog.Program, *pack.Result) {
	t.Helper()
	bench, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	p := bench.Build(in)
	out, err := core.Run(core.ScaledConfig(), cpu.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pack.Packages) == 0 {
		t.Fatal("fixture produced no packages")
	}
	if err := verify.Program("fixture", out.Packed); err != nil {
		t.Fatalf("fixture program not clean: %v", err)
	}
	if err := verify.Packages("fixture", out.Packed, out.Pack); err != nil {
		t.Fatalf("fixture packages not clean: %v", err)
	}
	return out.Packed, out.Pack
}

// regionFixture profiles m88ksim at scale 1 and identifies the first
// usable phase's region under the given inference setting.
func regionFixture(t *testing.T, inference bool) (region.Config, *prog.Image, *phasedb.Phase, *region.Region) {
	t.Helper()
	bench, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1
	p := bench.Build(in)
	img, err := p.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	db := phasedb.New(phasedb.DefaultConfig())
	det := hsd.New(hsd.ScaledConfig(), func(h hsd.HotSpot) { db.Record(h) })
	m := cpu.NewMachine(img)
	if err := m.Run(0, func(si *cpu.StepInfo) {
		if si.Inst.Op.IsCondBranch() {
			det.Branch(si.PC, si.Taken)
		}
	}); err != nil {
		t.Fatal(err)
	}
	cfg := region.DefaultConfig()
	cfg.EnableInference = inference
	for _, ph := range db.Phases {
		r, err := region.Identify(cfg, img, ph)
		if err != nil {
			continue
		}
		if err := verify.Region("fixture", cfg, img, ph, r); err != nil {
			t.Fatalf("fixture region not clean: %v", err)
		}
		return cfg, img, ph, r
	}
	t.Fatal("no identifiable phase in fixture")
	panic("unreachable")
}

// profiledBlock returns a phase branch that mapped onto a branch block.
func profiledBlock(t *testing.T, img *prog.Image, ph *phasedb.Phase) *prog.Block {
	t.Helper()
	for _, bs := range ph.SortedBranches() {
		b := img.BlockAt(bs.PC)
		if b != nil && b.Kind == prog.TermBranch && img.TermAddr[b] == bs.PC {
			return b
		}
	}
	t.Fatal("phase has no mapped branch block")
	panic("unreachable")
}

// schedFixture hand-builds one function with n copies of the given
// instruction in a single block, plus a certificate claiming they all
// issued at the given cycles.
func schedFixture(insts []prog.Ins, cycles []int) (*prog.Program, *opt.PassRecord) {
	p := prog.New()
	fn := p.AddFunc("f")
	p.Main = fn
	b := p.NewBlock(fn)
	b.Append(insts...)
	rec := &opt.PassRecord{
		Cycles:    map[*prog.Block][]int{b: cycles},
		Scheduled: []*prog.Func{fn},
		Res:       opt.DefaultResources(),
	}
	return p, rec
}

// ---------------------------------------------------------------------------
// Mutation harness: every rule in the catalog must fire on IR corrupted
// its particular way, and every fired error must match the sentinel.

func TestMutationsFireEveryRule(t *testing.T) {
	add := func(rd, rs1, rs2 isa.Reg) prog.Ins {
		return prog.Ins{Inst: isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}}
	}
	// The structural rules have one implementation in prog: a corruption
	// the verifier reports under cfg/main … cfg/arc must also fail
	// prog.Verify.
	structural := func(t *testing.T, p *prog.Program) error {
		if err := p.Verify(); err == nil {
			t.Error("prog.Verify accepted the corrupted program")
		}
		return verify.Program("mut", p)
	}
	cases := []struct {
		rule string
		run  func(t *testing.T) error
	}{
		{"cfg/main", func(t *testing.T) error {
			p, _, _ := tinyProgram()
			p.Main = nil
			return structural(t, p)
		}},
		{"cfg/dup", func(t *testing.T) error {
			p, fn, b := tinyProgram()
			fn.Blocks = append(fn.Blocks, b) // same block listed twice
			return structural(t, p)
		}},
		{"cfg/term", func(t *testing.T) error {
			p, _, b := tinyProgram()
			b.Kind = prog.TermFall // nil Next
			return structural(t, p)
		}},
		{"cfg/inst", func(t *testing.T) error {
			p, _, b := tinyProgram()
			b.Append(prog.Ins{Inst: isa.Inst{Op: isa.JMP}}) // control op in a body
			return structural(t, p)
		}},
		{"cfg/arc", func(t *testing.T) error {
			p, fn, b := tinyProgram()
			b.Kind = prog.TermFall
			b.Next = &prog.Block{ID: 999, Fn: fn} // dangling: never adopted
			return structural(t, p)
		}},
		{"cfg/callret", func(t *testing.T) error {
			p, fn, b := tinyProgram()
			helper := p.AddFunc("helper")
			hb := p.NewBlock(helper)
			hb.Kind = prog.TermFall
			hb.Next = hb // spins forever: no ret, no halt
			cont := p.NewBlock(fn)
			b.Kind = prog.TermCall
			b.Callee = helper
			b.Next = cont
			return verify.Program("mut", p)
		}},
		{"cfg/reach", func(t *testing.T) error {
			p, res := packedFixture(t)
			pk := res.Packages[0]
			orphan := p.NewBlock(pk.Fn) // no arc ever leads here
			orphan.Origin = pk.Fn.Blocks[0].Origin
			return verify.Packages("mut", p, res)
		}},
		{"df/exit-live", func(t *testing.T) error {
			p, res := packedFixture(t)
			for _, pk := range res.Packages {
				for _, b := range pk.Fn.Blocks {
					if b.Kind == prog.TermFall && b.Next != nil && b.Next.Fn != pk.Fn {
						b.ExitConsumes = nil // drop every dummy consumer
					}
				}
			}
			return verify.Packages("mut", p, res)
		}},
		{"df/sink", func(t *testing.T) error {
			// Certificate for a sink whose exit has two predecessors.
			p := prog.New()
			fn := p.AddFunc("f")
			p.Main = fn
			src := p.NewBlock(fn)
			exit := p.NewBlock(fn)
			other := p.NewBlock(fn)
			src.Append(add(3, 1, 2))
			src.Kind = prog.TermBranch
			src.CmpOp, src.Rs1, src.Rs2 = isa.BNE, 1, 2
			src.Taken, src.Next = other, exit
			other.Kind = prog.TermFall
			other.Next = exit
			exit.Append(add(4, 3, 3))
			rec := &opt.PassRecord{Sinks: []opt.SinkRecord{
				{From: src, Exit: exit, Ins: exit.Insts[0], Def: 4},
			}}
			return verify.Passes("mut", p, rec)
		}},
		{"df/merge", func(t *testing.T) error {
			p, _, b := tinyProgram()
			rec := &opt.PassRecord{Merges: []opt.MergeRecord{
				{Into: b, Fused: b}, // "fused" block is still in the layout
			}}
			return verify.Passes("mut", p, rec)
		}},
		{"pkg/origin", func(t *testing.T) error {
			p, res := packedFixture(t)
			res.Packages[0].Fn.Blocks[0].Origin = nil
			return verify.Packages("mut", p, res)
		}},
		{"pkg/copy", func(t *testing.T) error {
			p, res := packedFixture(t)
			inProgram := make(map[*prog.Block]bool)
			for _, f := range p.Funcs {
				for _, b := range f.Blocks {
					inProgram[b] = true
				}
			}
			// Cross two copies' origin chains.
			corrupted := false
			for _, pk := range res.Packages {
				var prevOrig *prog.Block
				pk.EachCopy(func(orig *prog.Block, ctx string, copy *prog.Block) {
					if corrupted || !inProgram[copy] {
						return
					}
					if prevOrig != nil && prevOrig != orig {
						copy.Origin = prevOrig
						corrupted = true
					}
					prevOrig = orig
				})
			}
			if !corrupted {
				t.Fatal("found no pair of copies to cross")
			}
			return verify.Packages("mut", p, res)
		}},
		{"pkg/launch", func(t *testing.T) error {
			p, res := packedFixture(t)
			// Retarget a launch arc from its entry copy to an arbitrary
			// non-entry block of the same package function.
			entries := make(map[*prog.Block]bool)
			for _, pk := range res.Packages {
				for _, e := range pk.Entries {
					entries[e] = true
				}
			}
			nonEntry := func(fn *prog.Func) *prog.Block {
				for _, b := range fn.Blocks {
					if !entries[b] {
						return b
					}
				}
				return nil
			}
			for _, f := range p.Funcs {
				if f.IsPackage {
					continue
				}
				for _, b := range f.Blocks {
					if b.Kind == prog.TermBranch && b.Taken != nil && b.Taken.Fn.IsPackage {
						if nb := nonEntry(b.Taken.Fn); nb != nil {
							b.Taken = nb
							return verify.Packages("mut", p, res)
						}
					}
					if (b.Kind == prog.TermFall || b.Kind == prog.TermBranch) &&
						b.Next != nil && b.Next.Fn != nil && b.Next.Fn.IsPackage {
						if nb := nonEntry(b.Next.Fn); nb != nil {
							b.Next = nb
							return verify.Packages("mut", p, res)
						}
					}
				}
			}
			// No arc launches; this fixture launches through calls. Demote
			// the called package's entry copy from the head of the layout so
			// the call lands on a non-entry block.
			for _, f := range p.Funcs {
				for _, b := range f.Blocks {
					if b.Kind != prog.TermCall || b.Callee == nil || !b.Callee.IsPackage {
						continue
					}
					blocks := b.Callee.Blocks
					for i := 1; i < len(blocks); i++ {
						if !entries[blocks[i]] {
							blocks[0], blocks[i] = blocks[i], blocks[0]
							return verify.Packages("mut", p, res)
						}
					}
				}
			}
			t.Fatal("fixture has no retargetable launch arc or call")
			panic("unreachable")
		}},
		{"pkg/link", func(t *testing.T) error {
			p, res := packedFixture(t)
			inProgram := make(map[*prog.Block]bool)
			for _, f := range p.Funcs {
				for _, b := range f.Blocks {
					inProgram[b] = true
				}
			}
			// Prefer breaking a linked exit; fall back to an unlinked one.
			var fallback *pack.Exit
			for _, pk := range res.Packages {
				for _, e := range pk.Exits {
					if !inProgram[e.Block] {
						continue
					}
					if e.Linked != nil {
						e.Block.Next = e.Target // bypasses the sibling copy
						return verify.Packages("mut", p, res)
					}
					if fallback == nil {
						fallback = e
					}
				}
			}
			if fallback == nil {
				t.Fatal("fixture has no exits")
			}
			fallback.Block.Next = fallback.Block // anywhere but the original target
			return verify.Packages("mut", p, res)
		}},
		{"pkg/growth", func(t *testing.T) error {
			p, res := packedFixture(t)
			res.AddedInsts += 7
			return verify.Packages("mut", p, res)
		}},
		{"sched/record", func(t *testing.T) error {
			_, rec := schedFixture([]prog.Ins{add(3, 1, 2), add(4, 1, 2)}, []int{0, 0})
			for b := range rec.Cycles {
				delete(rec.Cycles, b) // lose the block's schedule
			}
			return verify.Schedule("mut", rec)
		}},
		{"sched/width", func(t *testing.T) error {
			// Six integer ALU ops all claimed to issue at cycle 0; the
			// machine has five integer ALUs.
			insts := make([]prog.Ins, 6)
			cycles := make([]int, 6)
			for i := range insts {
				insts[i] = add(isa.Reg(i+1), 1, 2)
			}
			_, rec := schedFixture(insts, cycles)
			return verify.Schedule("mut", rec)
		}},
		{"sched/dep", func(t *testing.T) error {
			// RAW pair claimed to issue in the same cycle.
			_, rec := schedFixture([]prog.Ins{add(3, 1, 2), add(4, 3, 3)}, []int{0, 0})
			return verify.Schedule("mut", rec)
		}},
		{"region/profiled-hot", func(t *testing.T) error {
			cfg, img, ph, r := regionFixture(t, true)
			r.BlockTemp[profiledBlock(t, img, ph)] = region.Cold
			return verify.Region("mut", cfg, img, ph, r)
		}},
		{"region/profiled-arc", func(t *testing.T) error {
			cfg, img, ph, r := regionFixture(t, true)
			b := profiledBlock(t, img, ph)
			delete(r.ArcTemp, region.ArcKey{From: b, Taken: true})
			delete(r.ArcTemp, region.ArcKey{From: b, Taken: false})
			return verify.Region("mut", cfg, img, ph, r)
		}},
		{"region/no-cold", func(t *testing.T) error {
			cfg, img, ph, r := regionFixture(t, false)
			r.InferredCold++
			r.BlockTemp[profiledBlock(t, img, ph).Next] = region.Cold
			return verify.Region("mut", cfg, img, ph, r)
		}},
	}

	covered := make(map[string]bool)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.rule, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatalf("corruption aimed at %s produced no violation", tc.rule)
			}
			if !errors.Is(err, verify.ErrFailed) {
				t.Errorf("errors.Is(err, verify.ErrFailed) = false for %v", err)
			}
			diags := verify.Diagnostics(err)
			if len(diags) == 0 {
				t.Fatalf("no diagnostics extractable from %v", err)
			}
			found := false
			for _, d := range diags {
				covered[d.Rule] = true
				if d.Rule == tc.rule {
					found = true
				}
				if d.Stage != "mut" {
					t.Errorf("diagnostic carries stage %q, want %q", d.Stage, "mut")
				}
			}
			if !found {
				t.Errorf("rule %s did not fire; got %v", tc.rule, diags)
			}
		})
	}

	// The table above IS the catalog: a rule added to the verifier without
	// a mutation case here fails this cross-check.
	for _, rule := range verify.Rules() {
		if !covered[rule] {
			t.Errorf("rule %s has no mutation covering it", rule)
		}
	}
}

// TestTinyProgramClean pins the mutation baseline: the uncorrupted
// fixture passes both prog.Verify and the verifier.
func TestTinyProgramClean(t *testing.T) {
	p, _, _ := tinyProgram()
	if err := p.Verify(); err != nil {
		t.Errorf("prog.Verify: %v", err)
	}
	if err := verify.Program("clean", p); err != nil {
		t.Errorf("verify.Program: %v", err)
	}
}

// TestBlockWithoutFn lists a block whose Fn is nil and that falls
// through to a real block. The whole-program check (prog's Check) and the
// per-function check (CheckFunc) must each report it under cfg/dup
// instead of dereferencing the missing function.
func TestBlockWithoutFn(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(p *prog.Program, fn *prog.Func) error
	}{
		{"Check", func(p *prog.Program, _ *prog.Func) error { return verify.Program("nofn", p) }},
		{"CheckFunc", func(p *prog.Program, fn *prog.Func) error { return verify.Func("nofn", p, fn) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, fn, b := tinyProgram()
			fn.Blocks = append(fn.Blocks, &prog.Block{ID: 999, Kind: prog.TermFall, Next: b})
			var rules []string
			for _, d := range verify.Diagnostics(tc.check(p, fn)) {
				rules = append(rules, d.Rule)
			}
			if !slices.Contains(rules, "cfg/dup") {
				t.Errorf("diagnostics %q lack cfg/dup", rules)
			}
		})
	}
}

// TestCallRetOrder calls two functions that cannot return, the second
// declared one first: their cfg/callret diagnostics follow the call sites'
// block order on every run.
func TestCallRetOrder(t *testing.T) {
	p, fn, b := tinyProgram()
	spin := func(name string) *prog.Func {
		f := p.AddFunc(name)
		hb := p.NewBlock(f)
		hb.Kind = prog.TermFall
		hb.Next = hb
		return f
	}
	first, second := spin("first"), spin("second")
	site := b
	for _, callee := range []*prog.Func{second, first, second} {
		cont := p.NewBlock(fn)
		site.Kind, site.Callee, site.Next = prog.TermCall, callee, cont
		site = cont
	}
	for run := 0; run < 20; run++ {
		var got []string
		for _, d := range verify.Diagnostics(verify.Program("order", p)) {
			got = append(got, d.Rule+" "+d.Func+" "+d.Block)
		}
		want := []string{"cfg/callret second main.b0", "cfg/callret first main.b3"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: diagnostics %q, want %q", run, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// The verifier must stay silent on genuine pipeline output, across every
// variant, optional pass and launch mode.

func TestVerifyCleanOverSuite(t *testing.T) {
	for _, name := range []string{"gzip", "m88ksim", "perl", "vpr", "twolf"} {
		bench, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"default", "sink", "dynamic"} {
			for _, v := range core.Variants() {
				in := bench.Inputs[0]
				in.Scale = 1
				p := bench.Build(in)
				cfg := v.Apply(core.ScaledConfig())
				cfg.Verify = true
				switch mode {
				case "sink":
					cfg.EnableSink = true
				case "dynamic":
					cfg.Pack.DynamicLaunch = true
				}
				if _, err := core.Run(cfg, cpu.DefaultConfig(), p); err != nil {
					t.Errorf("%s %s %s: %v", name, mode, v.Name(), err)
				}
			}
		}
	}
}

// verifiedSuiteTrace runs the small suite with the verifier gating every
// stage and returns the normalized trace.
func verifiedSuiteTrace(t *testing.T, jobs int) *obs.Trace {
	t.Helper()
	rec := obs.NewRecorder()
	opts := report.Options{
		Machine:       cpu.DefaultConfig(),
		Core:          core.ScaledConfig(),
		Benchmarks:    []string{"m88ksim", "perl"},
		ScaleOverride: 1,
		Jobs:          jobs,
		Observer:      rec,
	}
	opts.Core.Verify = true
	if _, err := report.RunSuite(opts); err != nil {
		t.Fatal(err)
	}
	return rec.Export().Normalize()
}

// TestVerifyTraceInvariance asserts turning the verifier on leaves the
// merged observer stream deterministic across worker counts, and that the
// verification counters show work done and zero violations.
func TestVerifyTraceInvariance(t *testing.T) {
	seq := verifiedSuiteTrace(t, 1)
	par := verifiedSuiteTrace(t, 4)

	if !reflect.DeepEqual(seq.Events, par.Events) {
		t.Errorf("event streams differ between -j 1 and -j 4")
	}
	if !reflect.DeepEqual(seq.Spans, par.Spans) {
		t.Errorf("normalized span trees differ between -j 1 and -j 4")
	}
	if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
		t.Errorf("metrics differ between -j 1 and -j 4:\n%+v\n%+v", seq.Metrics, par.Metrics)
	}
	if got := seq.Metrics.Counters["verify.checked"]; got == 0 {
		t.Error("verify.checked counter is zero with the verifier on")
	}
	if got := seq.Metrics.Counters["verify.violations"]; got != 0 {
		t.Errorf("verify.violations = %d on a clean suite", got)
	}
}
