package pack

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/region"
)

// builder constructs the packages of one region (one phase).
type builder struct {
	cfg   Config
	p     *prog.Program
	reg   *region.Region
	specs map[*prog.Func]*funcSpec
}

type pendingCall struct {
	copyBlock *prog.Block // the call block's copy inside the package
	origBlock *prog.Block // the original call block (context element)
	callee    *prog.Func
	ctx       string      // context of copyBlock
	cont      *prog.Block // continuation inside the package (copy or exit)
}

// BuildPhase constructs all packages for one identified region. It appends
// package functions to the program but does not patch launch points —
// installation happens after every phase's packages exist so linking and
// ordering can see the whole group.
func BuildPhase(cfg Config, p *prog.Program, reg *region.Region) ([]*Package, error) {
	return BuildPhaseObserved(cfg, p, reg, obs.Nop{})
}

// BuildPhaseObserved is BuildPhase reporting to an observer: each
// constructed package emits a PackageBuilt event (Name = package function,
// N = block count) and bumps the pack.* counters.
func BuildPhaseObserved(cfg Config, p *prog.Program, reg *region.Region, o obs.Observer) ([]*Package, error) {
	hot := reg.HotBlocks()
	if len(hot) == 0 {
		return nil, fmt.Errorf("pack: phase %d has no hot blocks", reg.PhaseID)
	}
	b := &builder{cfg: cfg, p: p, reg: reg, specs: make(map[*prog.Func]*funcSpec)}
	for _, fn := range reg.HotFuncs(p) {
		if fn.IsPackage {
			// Profiles gathered on already-packed programs could name
			// package code; regions are only formed over original code.
			continue
		}
		b.specs[fn] = buildSpec(reg, fn, hot[fn])
	}
	if len(b.specs) == 0 {
		return nil, fmt.Errorf("pack: phase %d has hot blocks only in package code", reg.PhaseID)
	}
	roots := rootFuncs(p, b.specs)
	if len(roots) == 0 {
		return nil, fmt.Errorf("pack: phase %d found no root functions", reg.PhaseID)
	}
	var pkgs []*Package
	for i, root := range roots {
		pk, err := b.buildPackage(root, i)
		if err != nil {
			return nil, err
		}
		if pk != nil {
			pkgs = append(pkgs, pk)
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("pack: phase %d produced no packages", reg.PhaseID)
	}
	for _, pk := range pkgs {
		o.Emit(obs.Event{Kind: obs.PackageBuilt, Phase: pk.PhaseID, Name: pk.Fn.Name, N: int64(len(pk.Fn.Blocks))})
		o.Count(obs.PackPackages.Name, 1)
		o.Count(obs.PackPackageBlocks.Name, int64(len(pk.Fn.Blocks)))
		o.Count(obs.PackInlinedCalls.Name, int64(pk.InlinedCalls))
	}
	return pkgs, nil
}

// buildPackage extracts one package rooted at root.
func (b *builder) buildPackage(root *prog.Func, seq int) (*Package, error) {
	s := b.specs[root]
	if len(s.entries) == 0 || len(s.hot) == 0 {
		return nil, nil // nothing reachable to extract
	}
	pk := &Package{
		Fn:      b.p.AddFunc(pkgName(root, b.reg.PhaseID, seq)),
		PhaseID: b.reg.PhaseID,
		Root:    root,
		Entries: make(map[*prog.Block]*prog.Block),
		copies:  make(map[ctxKey]*prog.Block),
	}
	pk.Fn.IsPackage = true
	pk.Fn.PhaseID = b.reg.PhaseID

	var pending []pendingCall
	m := b.instantiate(pk, s, "", s.entries, &pending)
	for _, e := range s.entries {
		if c, ok := m[e]; ok {
			pk.Entries[e] = c
		}
	}
	// The copy of the root's function entry must lead the layout so the
	// package can be the target of retargeted call sites.
	if c, ok := m[root.Entry()]; ok {
		blocks := pk.Fn.Blocks
		for i, blk := range blocks {
			if blk == c && i != 0 {
				copy(blocks[1:i+1], blocks[:i])
				blocks[0] = c
				break
			}
		}
	}

	inlined := make(map[*prog.Func]int)
	for len(pending) > 0 {
		pc := pending[0]
		pending = pending[1:]
		cs := b.specs[pc.callee]
		limit := b.cfg.MaxInlineCopies
		if cs != nil && (pc.callee == root || cs.selfRecursive) {
			// A single self-copy is allowed (§3.3.2); deeper recursion
			// re-enters optimized code through a call. The same bound
			// applies when inlining a self-recursive callee into another
			// root's package — without it the copy chain would unroll to
			// MaxInlineCopies.
			limit = 1
		}
		switch {
		case cs == nil:
			return nil, fmt.Errorf("pack: pending call to un-spec'd function %s", pc.callee.Name)
		case !cs.inlinable:
			// Leave the call to original code; the callee becomes a root
			// of its own package (rule b) and its launch point will catch
			// the call entry.
			pk.CalleeRoots = append(pk.CalleeRoots, pc.callee)
			pc.copyBlock.Kind = prog.TermCall
			pc.copyBlock.Callee = pc.callee
			pc.copyBlock.Next = pc.cont
		case inlined[pc.callee] >= limit:
			if pc.callee == root && pk.Fn.Entry() != nil && pk.Fn.Entry() == m[root.Entry()] {
				// Recursion beyond the inlined copy re-enters the package.
				pc.copyBlock.Kind = prog.TermCall
				pc.copyBlock.Callee = pk.Fn
				pc.copyBlock.Next = pc.cont
			} else {
				pc.copyBlock.Kind = prog.TermCall
				pc.copyBlock.Callee = pc.callee
				pc.copyBlock.Next = pc.cont
			}
		default:
			inlined[pc.callee]++
			pk.InlinedCalls++
			ctx := ctxAppend(pc.ctx, pc.origBlock)
			m2 := b.instantiate(pk, cs, ctx, []*prog.Block{cs.fn.Entry()}, &pending)
			prologue := m2[cs.fn.Entry()]
			if prologue == nil {
				return nil, fmt.Errorf("pack: inlinable callee %s lost its prologue", pc.callee.Name)
			}
			// Replace the call: materialize the continuation address into
			// RRA so side exits into original callee code still return to
			// the package, then fall into the inlined prologue.
			pc.copyBlock.Kind = prog.TermFall
			pc.copyBlock.Callee = nil
			pc.copyBlock.Next = prologue
			pc.copyBlock.Insts = append(pc.copyBlock.Insts, prog.Ins{
				Inst:        isa.Inst{Op: isa.LA, Rd: isa.RRA},
				BlockTarget: pc.cont,
			})
			// Inlined returns fall through to the continuation.
			for ob, cb := range m2 {
				if ob.Kind == prog.TermRet && cb.Kind == prog.TermRet {
					cb.Kind = prog.TermFall
					cb.Next = pc.cont
				}
			}
		}
	}
	for _, blk := range pk.Fn.Blocks {
		if blk.Kind == prog.TermBranch {
			pk.Branches++
		}
	}
	return pk, nil
}

// instantiate copies spec's hot subgraph reachable from roots into pk under
// the given context, wiring internal arcs to copies and pruned arcs to
// fresh exit blocks. Call blocks whose callee has a spec are enqueued on
// pending for partial inlining.
func (b *builder) instantiate(pk *Package, s *funcSpec, ctx string, roots []*prog.Block, pending *[]pendingCall) map[*prog.Block]*prog.Block {
	// BFS for a deterministic inclusion order.
	included := make(map[*prog.Block]bool)
	var order []*prog.Block
	var work []*prog.Block
	for _, r := range roots {
		if s.hot[r] && !included[r] {
			included[r] = true
			order = append(order, r)
			work = append(work, r)
		}
	}
	var outs []region.ArcKey
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		outs = region.OutArcs(blk, outs[:0])
		for _, k := range outs {
			d := k.Dest()
			if s.hot[d] && arcIncluded(b.reg, k) && !included[d] {
				included[d] = true
				order = append(order, d)
				work = append(work, d)
			}
		}
	}

	m := make(map[*prog.Block]*prog.Block, len(order))
	for _, ob := range order {
		cb := &prog.Block{
			Insts:  append([]prog.Ins(nil), ob.Insts...),
			Kind:   ob.Kind,
			CmpOp:  ob.CmpOp,
			Rs1:    ob.Rs1,
			Rs2:    ob.Rs2,
			Origin: prog.OriginRoot(ob),
		}
		b.p.AdoptBlock(pk.Fn, cb)
		m[ob] = cb
		pk.copies[ctxKey{ob, ctx}] = cb
	}
	// Wire arcs.
	for _, ob := range order {
		cb := m[ob]
		switch ob.Kind {
		case prog.TermBranch:
			cb.Taken = b.resolveArc(pk, s, ctx, ob, true, m)
			cb.Next = b.resolveArc(pk, s, ctx, ob, false, m)
		case prog.TermFall:
			cb.Next = b.resolveArc(pk, s, ctx, ob, false, m)
		case prog.TermCall:
			cont := b.resolveArc(pk, s, ctx, ob, false, m)
			if b.specs[ob.Callee] != nil {
				// Defer: partial inlining decides what this becomes.
				*pending = append(*pending, pendingCall{
					copyBlock: cb, origBlock: ob, callee: ob.Callee, ctx: ctx, cont: cont,
				})
				cb.Next = cont // placeholder until the pending entry is resolved
				cb.Callee = ob.Callee
			} else {
				cb.Callee = ob.Callee
				cb.Next = cont
			}
		case prog.TermRet, prog.TermHalt:
			// nothing to wire
		}
	}
	return m
}

// resolveArc returns the in-package destination for one of ob's arcs:
// either the copy of an included destination or a fresh exit block that
// transfers back to the original destination.
func (b *builder) resolveArc(pk *Package, s *funcSpec, ctx string, ob *prog.Block, takenDir bool, m map[*prog.Block]*prog.Block) *prog.Block {
	k := region.ArcKey{From: ob, Taken: takenDir}
	d := k.Dest()
	if d == nil {
		return nil
	}
	if c, ok := m[d]; ok && arcIncluded(b.reg, k) {
		return c
	}
	// Pruned arc: build an exit block carrying the dummy-consumer set for
	// the registers live into the original destination (§3.3.1).
	eb := &prog.Block{
		Kind:         prog.TermFall,
		Next:         d,
		ExitConsumes: s.liveness.In[d].Regs(),
		Origin:       prog.OriginRoot(ob),
	}
	b.p.AdoptBlock(pk.Fn, eb)
	pk.Exits = append(pk.Exits, &Exit{
		Block:    eb,
		From:     ob,
		TakenDir: takenDir,
		Target:   d,
		Ctx:      ctx,
	})
	return eb
}
