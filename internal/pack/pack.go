// Package pack implements step 3 of Vacuum Packing (§3.3): turning each
// phase's hot region into extracted code packages. It prunes function
// copies to their hot blocks, preserves data-flow at side exits with dummy
// consumer metadata, locates root functions and entry blocks, performs
// partial inlining across the region call graph, patches launch points in
// the original code, and links sibling packages that share a root function
// so phase transitions can reach the right specialization.
package pack

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/prog"
	"repro/internal/region"
)

// Config controls package construction.
type Config struct {
	// EnableLinking turns inter-package linking (§3.3.4) on. Without it,
	// exit blocks always return to original code and only one package per
	// launch point is reachable — the paper's "no linking" ablation.
	EnableLinking bool
	// DynamicLaunch replaces static package linking with the §3.3.4
	// alternative the paper sets aside: launch points become indirect
	// jumps through per-entry slots, and exit paths carry monitoring
	// snippets that record the next phase's package (see dynamic.go).
	DynamicLaunch bool
	// MaxInlineCopies bounds how many times one callee may be inlined into
	// a single package, guaranteeing termination on call-graph cycles.
	MaxInlineCopies int
	// MaxExhaustiveOrder is the largest same-root package group ordered by
	// exhaustive permutation search; larger groups use a greedy order.
	MaxExhaustiveOrder int
	// Verify, when set, runs over the installed program at the end of
	// InstallObserved (before the built-in structural check); a non-nil
	// error fails the installation. core wires the static verifier in here
	// so pack need not import it.
	Verify func(*prog.Program, *Result) error
}

// DefaultConfig returns the paper's configuration (linking on).
func DefaultConfig() Config {
	return Config{
		EnableLinking:      true,
		MaxInlineCopies:    16,
		MaxExhaustiveOrder: 6,
	}
}

// ctxKey identifies a block copy inside a package by its original block and
// its inlining context (the path of original call-site block IDs from the
// root). Copies with equal keys in different packages are the paper's
// "identical calling contexts" — the only legal link targets.
type ctxKey struct {
	orig *prog.Block
	ctx  string
}

// Exit is a cold side exit from a package: an exit block that transfers
// control back to original code (or, after linking, into a sibling
// package).
type Exit struct {
	// Block is the exit block inside the package; it holds ExitConsumes
	// and ends with an unconditional transfer.
	Block *prog.Block
	// From is the original block whose pruned arc this exit represents;
	// TakenDir says which direction of From it was.
	From     *prog.Block
	TakenDir bool
	// Target is the original destination block the exit returns to.
	Target *prog.Block
	// Ctx is the inlining context of the copy of From.
	Ctx string
	// Linked records the package this exit was retargeted into, if any.
	Linked *Package
}

// Package is one extracted, phase-specialized code package.
type Package struct {
	Fn      *prog.Func
	PhaseID int
	Root    *prog.Func // original root function

	// Entries maps original entry blocks to their copies; launch points
	// in original code are retargeted to these.
	Entries map[*prog.Block]*prog.Block
	// Exits lists the package's side exits in creation order.
	Exits []*Exit

	// copies indexes every copied block by (original, context).
	copies map[ctxKey]*prog.Block
	// Branches counts conditional branch blocks, the denominator of the
	// paper's link-rank ratio.
	Branches int
	// InlinedCalls counts partial-inlining expansions performed.
	InlinedCalls int
	// CalleeRoots lists region functions that could not be inlined and
	// therefore stayed as calls (they become roots themselves).
	CalleeRoots []*prog.Func
}

// CopyOf returns the package's copy of an original block under the given
// inlining context, or nil.
func (pk *Package) CopyOf(orig *prog.Block, ctx string) *prog.Block {
	return pk.copies[ctxKey{orig, ctx}]
}

// EachCopy visits every (original block, context, copy) triple in the
// package in a deterministic order: original block ID, then context.
func (pk *Package) EachCopy(f func(orig *prog.Block, ctx string, copy *prog.Block)) {
	keys := make([]ctxKey, 0, len(pk.copies))
	for k := range pk.copies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].orig.ID != keys[j].orig.ID {
			return keys[i].orig.ID < keys[j].orig.ID
		}
		return keys[i].ctx < keys[j].ctx
	})
	for _, k := range keys {
		f(k.orig, k.ctx, pk.copies[k])
	}
}

// Result is the outcome of building and installing all packages.
type Result struct {
	Packages []*Package
	// Groups holds same-root package groups in their chosen link order.
	Groups map[*prog.Func][]*Package
	// Links counts exit retargets into sibling packages.
	Links int
	// Monitors counts dynamic-launch monitoring snippets inserted (only
	// with Config.DynamicLaunch).
	Monitors int
	// LaunchPoints counts original-code arcs or call sites retargeted into
	// packages.
	LaunchPoints int
	// OrigInsts is the static instruction count before extraction;
	// AddedInsts the instructions added by packages; SelectedInsts the
	// distinct original instructions selected into at least one package.
	OrigInsts     int
	AddedInsts    int
	SelectedInsts int
}

// CodeGrowth returns AddedInsts/OrigInsts.
func (r *Result) CodeGrowth() float64 {
	if r.OrigInsts == 0 {
		return 0
	}
	return float64(r.AddedInsts) / float64(r.OrigInsts)
}

// SelectedFraction returns SelectedInsts/OrigInsts.
func (r *Result) SelectedFraction() float64 {
	if r.OrigInsts == 0 {
		return 0
	}
	return float64(r.SelectedInsts) / float64(r.OrigInsts)
}

// Replication returns AddedInsts/SelectedInsts, the paper's ~2.6 factor.
func (r *Result) Replication() float64 {
	if r.SelectedInsts == 0 {
		return 0
	}
	return float64(r.AddedInsts) / float64(r.SelectedInsts)
}

// funcSpec is the pruned view of one region function: which blocks are in,
// which arcs are internal, and whether partial inlining is legal.
type funcSpec struct {
	fn  *prog.Func
	reg *region.Region
	// hot is the inclusion set: Hot blocks reachable from the spec's entry
	// set through included arcs.
	hot map[*prog.Block]bool
	// entries are blocks with no included forward in-arc (roots of the hot
	// subgraph, §3.3.2).
	entries []*prog.Block
	// inlinable: has hot prologue, hot epilogue (RET block) and a hot path
	// between them (§3.3.3).
	inlinable bool
	// selfRecursive: calls itself from a hot block.
	selfRecursive bool
	liveness      *prog.Liveness
}

// arcIncluded reports whether an arc is part of the extracted region: it
// must be Hot and its destination block Hot.
func arcIncluded(reg *region.Region, k region.ArcKey) bool {
	d := k.Dest()
	return reg.ArcTemp[k] == region.Hot && d != nil && reg.BlockTemp[d] == region.Hot
}

// buildSpec analyzes one function's hot subgraph for a region.
func buildSpec(reg *region.Region, fn *prog.Func, hotBlocks []*prog.Block) *funcSpec {
	s := &funcSpec{
		fn:  fn,
		reg: reg,
		hot: make(map[*prog.Block]bool, len(hotBlocks)),
	}
	hotSet := make(map[*prog.Block]bool, len(hotBlocks))
	for _, b := range hotBlocks {
		hotSet[b] = true
	}
	back := prog.BackEdges(fn)

	// Entry candidates: hot blocks with no included forward in-arc.
	var outs []region.ArcKey
	hasHotIn := make(map[*prog.Block]bool)
	for _, b := range hotBlocks {
		outs = region.OutArcs(b, outs[:0])
		for _, k := range outs {
			d := k.Dest()
			if hotSet[d] && arcIncluded(reg, k) && !back[prog.Edge{From: b, To: d}] {
				hasHotIn[d] = true
			}
		}
	}
	for _, b := range hotBlocks {
		if !hasHotIn[b] {
			s.entries = append(s.entries, b)
		}
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].ID < s.entries[j].ID })

	// Reachability from entries through included arcs defines the final
	// inclusion set; disjoint hot segments are discarded (§3.3.3).
	work := append([]*prog.Block(nil), s.entries...)
	for _, b := range work {
		s.hot[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		outs = region.OutArcs(b, outs[:0])
		for _, k := range outs {
			d := k.Dest()
			if hotSet[d] && arcIncluded(reg, k) && !s.hot[d] {
				s.hot[d] = true
				work = append(work, d)
			}
		}
	}

	// Inlinability: prologue = function entry block hot & included;
	// epilogue = an included RET block reachable from the prologue.
	prologue := fn.Entry()
	if s.hot[prologue] {
		seen := map[*prog.Block]bool{prologue: true}
		stack := []*prog.Block{prologue}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if b.Kind == prog.TermRet {
				s.inlinable = true
				break
			}
			outs = region.OutArcs(b, outs[:0])
			for _, k := range outs {
				d := k.Dest()
				if s.hot[d] && arcIncluded(reg, k) && !seen[d] {
					seen[d] = true
					stack = append(stack, d)
				}
			}
		}
	}

	for b := range s.hot {
		if b.Kind == prog.TermCall && b.Callee == fn {
			s.selfRecursive = true
		}
	}
	s.liveness = prog.ComputeLiveness(fn)
	return s
}

// rootFuncs picks the region's root functions per §3.3.2: functions with no
// region-internal callers (ignoring call-graph back edges), functions that
// cannot be inlined, and self-recursive functions.
func rootFuncs(p *prog.Program, specs map[*prog.Func]*funcSpec) []*prog.Func {
	// Region call graph over spec'd functions: arcs from hot call blocks.
	callees := make(map[*prog.Func][]*prog.Func)
	for fn, s := range specs {
		seen := map[*prog.Func]bool{}
		for b := range s.hot {
			if b.Kind == prog.TermCall && b.Callee != nil && specs[b.Callee] != nil &&
				b.Callee != fn && !seen[b.Callee] {
				seen[b.Callee] = true
				callees[fn] = append(callees[fn], b.Callee)
			}
		}
	}
	// DFS from every function to find call-graph back edges.
	backCallers := make(map[*prog.Func]map[*prog.Func]bool)
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*prog.Func]uint8)
	var dfs func(f *prog.Func)
	dfs = func(f *prog.Func) {
		color[f] = grey
		for _, c := range callees[f] {
			switch color[c] {
			case white:
				dfs(c)
			case grey:
				if backCallers[c] == nil {
					backCallers[c] = make(map[*prog.Func]bool)
				}
				backCallers[c][f] = true
			}
		}
		color[f] = black
	}
	var ordered []*prog.Func
	for _, f := range p.Funcs {
		if specs[f] != nil {
			ordered = append(ordered, f)
		}
	}
	for _, f := range ordered {
		if color[f] == white {
			dfs(f)
		}
	}

	hasForwardCaller := make(map[*prog.Func]bool)
	for f, cs := range callees {
		for _, c := range cs {
			if !backCallers[c][f] {
				hasForwardCaller[c] = true
			}
		}
	}
	var roots []*prog.Func
	for _, f := range ordered {
		s := specs[f]
		switch {
		case !hasForwardCaller[f]:
			roots = append(roots, f)
		case !s.inlinable:
			roots = append(roots, f)
		case s.selfRecursive:
			roots = append(roots, f)
		}
	}
	return roots
}

func ctxAppend(ctx string, callSite *prog.Block) string {
	if ctx == "" {
		return strconv.Itoa(callSite.ID)
	}
	return ctx + "." + strconv.Itoa(callSite.ID)
}

func pkgName(root *prog.Func, phaseID, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s.pkg.p%d", root.Name, phaseID)
	if n > 0 {
		fmt.Fprintf(&sb, ".%d", n)
	}
	return sb.String()
}
