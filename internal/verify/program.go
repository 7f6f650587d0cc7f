package verify

import (
	"slices"

	"repro/internal/prog"
)

// Program checks the CFG well-formedness rules over a whole program: the
// structural rules of (*prog.Program).Check (cfg/main, cfg/dup, cfg/term,
// cfg/inst, cfg/arc), every violation reported under stage, plus
//
//	cfg/callret — every called non-package function can return (has at
//	              least one ret or halt block)
func Program(stage string, p *prog.Program) error {
	c := &checker{stage: stage}
	c.violations(p.Check())
	c.callRet(p, p.Funcs)
	return c.err()
}

// Func checks the same rules over a single function (prog's CheckFunc,
// plus cfg/callret for its call sites). The per-pass sandwich uses it:
// optimization passes mutate exactly one function.
func Func(stage string, p *prog.Program, fn *prog.Func) error {
	c := &checker{stage: stage}
	c.violations(p.CheckFunc(fn))
	c.callRet(p, []*prog.Func{fn})
	return c.err()
}

func (c *checker) violations(vs []prog.Violation) {
	for _, v := range vs {
		c.add(v.Rule, v.Func, v.Block, "%s", v.Msg)
	}
}

// callRet walks the call sites of fns in block order: a called non-package
// function must be able to return — at least one of its blocks ends in
// ret or halt. Each callee is judged once, at its first call site. Package
// functions are exempt: they are entered by jumps and may leave through
// side exits into original code instead of returning. Call sites prog
// already refuses (no Callee or Next, a callee outside the program) are
// skipped.
func (c *checker) callRet(p *prog.Program, fns []*prog.Func) {
	seen := make(map[*prog.Func]bool)
	for _, f := range fns {
		for _, site := range f.Blocks {
			callee := site.Callee
			if site.Kind != prog.TermCall || callee == nil || site.Next == nil || seen[callee] {
				continue
			}
			seen[callee] = true
			if callee.IsPackage || !slices.Contains(p.Funcs, callee) || slices.ContainsFunc(callee.Blocks, returns) {
				continue
			}
			c.add("cfg/callret", callee, site, "called function %q has no ret or halt block", callee.Name)
		}
	}
}

func returns(b *prog.Block) bool { return b.Kind == prog.TermRet || b.Kind == prog.TermHalt }
