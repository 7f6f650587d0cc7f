package asm_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

// The fmt-based renderer below is the codec's reference: Disassemble and
// isa.Inst.String must match it byte for byte, because package-set
// hashes, store contents and served bytes are all taken over the text.

func refReg(r isa.Reg) string {
	switch {
	case r == isa.RSP:
		return "sp"
	case r == isa.RRA:
		return "ra"
	case r < isa.NumIntRegs:
		return fmt.Sprintf("r%d", uint8(r))
	case r < isa.NumRegs:
		return fmt.Sprintf("f%d", uint8(r)-isa.NumIntRegs)
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

func refOp(op isa.Opcode) string {
	if !op.Valid() {
		return fmt.Sprintf("op?%d", uint8(op))
	}
	return op.String()
}

func refInst(in isa.Inst) string {
	op, name := in.Op, refOp(in.Op)
	switch {
	case op == isa.LD || op == isa.FLD:
		return fmt.Sprintf("%s %s, %d(%s)", name, refReg(in.Rd), in.Imm, refReg(in.Rs1))
	case op == isa.ST || op == isa.FST:
		return fmt.Sprintf("%s %s, %d(%s)", name, refReg(in.Rs2), in.Imm, refReg(in.Rs1))
	case op == isa.LI:
		return fmt.Sprintf("%s %s, %d", name, refReg(in.Rd), in.Imm)
	case op == isa.LA:
		return fmt.Sprintf("%s %s, @%d", name, refReg(in.Rd), in.Target)
	case op.HasTarget() && op.HasRs1(): // conditional branches
		return fmt.Sprintf("%s %s, %s, @%d", name, refReg(in.Rs1), refReg(in.Rs2), in.Target)
	case op.HasTarget():
		return fmt.Sprintf("%s @%d", name, in.Target)
	case op.HasRd() && op.HasRs1() && op.HasRs2():
		return fmt.Sprintf("%s %s, %s, %s", name, refReg(in.Rd), refReg(in.Rs1), refReg(in.Rs2))
	case op.HasRd() && op.HasRs1() && op.HasImm():
		return fmt.Sprintf("%s %s, %s, %d", name, refReg(in.Rd), refReg(in.Rs1), in.Imm)
	case op.HasRd() && op.HasRs1():
		return fmt.Sprintf("%s %s, %s", name, refReg(in.Rd), refReg(in.Rs1))
	default:
		return name
	}
}

func refDisassemble(p *prog.Program) string {
	var sb strings.Builder
	if len(p.Data) > 0 {
		const perLine = 8
		for i := 0; i < len(p.Data); i += perLine {
			end := i + perLine
			if end > len(p.Data) {
				end = len(p.Data)
			}
			sb.WriteString(".data")
			for _, v := range p.Data[i:end] {
				fmt.Fprintf(&sb, " %d", v)
			}
			sb.WriteByte('\n')
		}
	}
	label := func(b *prog.Block) string { return fmt.Sprintf("B%d", b.ID) }

	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "\n.func %s\n", f.Name)
		if p.Main == f {
			sb.WriteString(".main\n")
		}
		if f.IsPackage {
			fmt.Fprintf(&sb, ".package %d\n", f.PhaseID)
		}
		for bi, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s:", label(b))
			if len(b.ExitConsumes) > 0 {
				sb.WriteString(" ; exit consumes")
				for _, r := range b.ExitConsumes {
					fmt.Fprintf(&sb, " %s", refReg(r))
				}
			}
			sb.WriteByte('\n')
			for _, in := range b.Insts {
				if in.BlockTarget != nil {
					fmt.Fprintf(&sb, "  la %s, %s\n", refReg(in.Rd), label(in.BlockTarget))
					continue
				}
				fmt.Fprintf(&sb, "  %s\n", refInst(in.Inst))
			}
			var next *prog.Block
			if bi+1 < len(f.Blocks) {
				next = f.Blocks[bi+1]
			}
			switch b.Kind {
			case prog.TermFall:
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermBranch:
				fmt.Fprintf(&sb, "  %s %s, %s, %s\n", refOp(b.CmpOp), refReg(b.Rs1), refReg(b.Rs2), label(b.Taken))
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermCall:
				fmt.Fprintf(&sb, "  call %s\n", b.Callee.Name)
				if b.Next != next {
					fmt.Fprintf(&sb, "  jmp %s\n", label(b.Next))
				}
			case prog.TermRet:
				sb.WriteString("  ret\n")
			case prog.TermHalt:
				sb.WriteString("  halt\n")
			case prog.TermJumpReg:
				fmt.Fprintf(&sb, "  jr %s\n", refReg(b.Rs1))
			}
		}
	}
	return sb.String()
}

// corpusProgram is one program of the codec corpus: a workload input's
// original program, or its packed program under one variant.
type corpusProgram struct {
	name   string
	p      *prog.Program
	packed bool
}

var (
	corpusOnce sync.Once
	corpus     []corpusProgram
	corpusErr  error
)

// codecCorpus builds every workload input at scale 1 and packs it under
// all four variants, profiling each input once. It is built once per
// test binary and shared read-only.
func codecCorpus(tb testing.TB) []corpusProgram {
	tb.Helper()
	corpusOnce.Do(func() { corpus, corpusErr = buildCorpus() })
	if corpusErr != nil {
		tb.Fatal(corpusErr)
	}
	return corpus
}

func buildCorpus() ([]corpusProgram, error) {
	var out []corpusProgram
	for _, b := range workload.Ordered() {
		for _, in := range b.Inputs {
			in.Scale = 1
			p := b.Build(in)
			name := b.Name + "/" + in.Name
			out = append(out, corpusProgram{name: name, p: p})
			img, err := p.Linearize()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			cfg := core.ScaledConfig()
			pa, err := core.ProfileStage(cfg, img, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for _, v := range core.Variants() {
				vcfg := v.Apply(cfg)
				ra, err := core.RegionStage(vcfg, img, pa)
				if errors.Is(err, core.ErrNoPhases) {
					continue
				}
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, v.Name(), err)
				}
				set, err := core.PackageStage(vcfg, p.Clone(), img, ra)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, v.Name(), err)
				}
				packed, err := set.Materialize()
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, v.Name(), err)
				}
				out = append(out, corpusProgram{name: name + "/" + v.Name(), p: packed, packed: true})
			}
		}
	}
	return out, nil
}

func TestDisassembleMatchesReference(t *testing.T) {
	packed := 0
	for _, c := range codecCorpus(t) {
		if c.packed {
			packed++
		}
		got, want := asm.Disassemble(c.p), refDisassemble(c.p)
		if got == want {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Errorf("%s: Disassemble differs from the reference at byte %d:\n got %q\nwant %q",
			c.name, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
	if packed == 0 {
		t.Fatal("corpus holds no packed programs")
	}
}

func TestInstStringMatchesReference(t *testing.T) {
	regs := []isa.Reg{isa.R0, 7, isa.RSP, isa.RRA, isa.F(0), isa.F(isa.NumFPRegs - 1), isa.NumRegs, 255}
	imms := []int64{0, 42, -8, math.MaxInt64, math.MinInt64}
	for op := 0; op <= isa.NumOpcodes; op++ { // NumOpcodes itself is invalid
		for i, r := range regs {
			for j, imm := range imms {
				in := isa.Inst{
					Op:     isa.Opcode(op),
					Rd:     r,
					Rs1:    regs[(i+1)%len(regs)],
					Rs2:    regs[(i+2)%len(regs)],
					Imm:    imm,
					Target: imms[(j+1)%len(imms)],
				}
				if got, want := in.String(), refInst(in); got != want {
					t.Errorf("%+v: String() = %q, reference %q", in, got, want)
				}
			}
		}
	}
	for _, op := range []isa.Opcode{isa.Opcode(isa.NumOpcodes), 255} {
		if got, want := (isa.Inst{Op: op}).String(), refOp(op); got != want {
			t.Errorf("invalid opcode %d renders %q, want %q", uint8(op), got, want)
		}
	}
	for r := 0; r < 256; r++ {
		if got, want := isa.Reg(r).String(), refReg(isa.Reg(r)); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// packedCorpus returns the packed programs with their disassembly, the
// inputs of the codec benchmarks.
func packedCorpus(b *testing.B) (progs []*prog.Program, texts []string, bytes int64) {
	for _, c := range codecCorpus(b) {
		if c.packed {
			text := asm.Disassemble(c.p)
			progs, texts = append(progs, c.p), append(texts, text)
			bytes += int64(len(text))
		}
	}
	return progs, texts, bytes
}

func BenchmarkDisassemble(b *testing.B) {
	progs, _, n := packedCorpus(b)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, p := range progs {
			asm.Disassemble(p)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	_, texts, n := packedCorpus(b)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, text := range texts {
			if _, err := asm.Assemble(text); err != nil {
				b.Fatal(err)
			}
		}
	}
}
