package asm

import (
	"strconv"

	"repro/internal/prog"
)

// Disassemble renders a program in assembler syntax. Labels are the
// globally unique `B<ID>` names, so cross-function references produced by
// package extraction render (and reassemble) correctly.
//
// The output is designed to reassemble to a semantically identical program:
// `Assemble(Disassemble(p))` linearizes to the same code image as p, though
// block identities may differ (non-adjacent branch fallthroughs become tiny
// explicit jump blocks, exactly the jumps the linearizer would synthesize).
//
// The text is the stored and served form of every package set, and its
// bytes are a contract: content hashes are taken over them.
func Disassemble(p *prog.Program) string {
	b := make([]byte, 0, 32*p.NumInsts()+24*len(p.Data)) // rarely grows
	for i := 0; i < len(p.Data); i += 8 {
		b = append(b, ".data"...)
		for _, v := range p.Data[i:min(i+8, len(p.Data))] {
			b = strconv.AppendInt(append(b, ' '), v, 10)
		}
		b = append(b, '\n')
	}
	for _, f := range p.Funcs {
		b = append(append(append(b, "\n.func "...), f.Name...), '\n')
		if p.Main == f {
			b = append(b, ".main\n"...)
		}
		if f.IsPackage {
			b = append(strconv.AppendInt(append(b, ".package "...), int64(f.PhaseID), 10), '\n')
		}
		for bi, blk := range f.Blocks {
			b = append(appendLabel(b, blk), ':')
			if len(blk.ExitConsumes) > 0 {
				b = append(b, " ; exit consumes"...)
				for _, r := range blk.ExitConsumes {
					b = append(append(b, ' '), r.String()...)
				}
			}
			b = append(b, '\n')
			for _, in := range blk.Insts {
				if in.BlockTarget != nil {
					b = append(append(append(b, "  la "...), in.Rd.String()...), ", "...)
					b = append(appendLabel(b, in.BlockTarget), '\n')
					continue
				}
				b = append(in.Inst.Append(append(b, "  "...)), '\n')
			}
			var next *prog.Block
			if bi+1 < len(f.Blocks) {
				next = f.Blocks[bi+1]
			}
			switch blk.Kind {
			case prog.TermFall:
				b = appendJump(b, blk.Next, next)
			case prog.TermBranch:
				b = append(append(append(b, "  "...), blk.CmpOp.String()...), ' ')
				b = append(append(append(append(b, blk.Rs1.String()...), ", "...), blk.Rs2.String()...), ", "...)
				b = append(appendLabel(b, blk.Taken), '\n')
				b = appendJump(b, blk.Next, next)
			case prog.TermCall:
				b = append(append(append(b, "  call "...), blk.Callee.Name...), '\n')
				b = appendJump(b, blk.Next, next)
			case prog.TermRet:
				b = append(b, "  ret\n"...)
			case prog.TermHalt:
				b = append(b, "  halt\n"...)
			case prog.TermJumpReg:
				b = append(append(append(b, "  jr "...), blk.Rs1.String()...), '\n')
			}
		}
	}
	return string(b)
}

// appendLabel appends blk's label, B<ID>.
func appendLabel(b []byte, blk *prog.Block) []byte {
	return strconv.AppendInt(append(b, 'B'), int64(blk.ID), 10)
}

// appendJump appends the explicit jump a block needs when its successor
// is not the block laid out after it.
func appendJump(b []byte, to, laidOutNext *prog.Block) []byte {
	if to == laidOutNext {
		return b
	}
	return append(appendLabel(append(b, "  jmp "...), to), '\n')
}
