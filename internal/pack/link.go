package pack

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/prog"
)

// Install finalizes extraction: it groups packages by root function, picks
// a link ordering per group by the paper's rank metric, retargets cold
// exits into compatible sibling packages (§3.3.4), patches launch points in
// the original code, and returns the bookkeeping a report needs. pkgs holds
// every package from every phase; the program must already contain their
// functions (BuildPhase appended them).
func Install(cfg Config, p *prog.Program, pkgs []*Package) (*Result, error) {
	return InstallObserved(cfg, p, pkgs, obs.Nop{})
}

// InstallObserved is Install reporting to an observer: the whole
// installation runs inside a "link" span, every exit retarget emits a
// PackageLinked event, and the pack.links / pack.launch_points /
// pack.monitors counters are bumped.
func InstallObserved(cfg Config, p *prog.Program, pkgs []*Package, o obs.Observer) (*Result, error) {
	sp := o.StartSpan(obs.StageLink)
	defer sp.End()
	res := &Result{
		Packages: pkgs,
		Groups:   make(map[*prog.Func][]*Package),
	}

	// Static accounting.
	selected := make(map[*prog.Block]bool)
	for _, f := range p.Funcs {
		n := f.NumInsts()
		if f.IsPackage {
			res.AddedInsts += n
		} else {
			res.OrigInsts += n
		}
	}
	for _, pk := range pkgs {
		for key := range pk.copies {
			selected[key.orig] = true
		}
	}
	for b := range selected {
		res.SelectedInsts += b.NumInsts()
	}

	// Group by root, preserving package creation order.
	var rootOrder []*prog.Func
	for _, pk := range pkgs {
		if len(res.Groups[pk.Root]) == 0 {
			rootOrder = append(rootOrder, pk.Root)
		}
		res.Groups[pk.Root] = append(res.Groups[pk.Root], pk)
	}

	for _, root := range rootOrder {
		group := res.Groups[root]
		ordered := group
		var links []linkChoice
		if cfg.DynamicLaunch && len(group) > 1 {
			ordered, links = chooseOrdering(cfg, group)
			res.Groups[root] = ordered
			launches, monitors := installDynamic(p, ordered, links)
			res.LaunchPoints += launches
			res.Monitors += monitors
			continue
		}
		if cfg.EnableLinking && len(group) > 1 {
			ordered, links = chooseOrdering(cfg, group)
			res.Groups[root] = ordered
			for _, lc := range links {
				lc.exit.Block.Next = lc.target
				lc.exit.Linked = lc.pkg
				res.Links++
				o.Emit(obs.Event{Kind: obs.PackageLinked, Phase: lc.pkg.PhaseID, Name: lc.pkg.Fn.Name})
			}
		}
		res.LaunchPoints += patchLaunchPoints(p, ordered)
	}

	// The hook speaks first: it reports every violation under its own
	// stage, where the built-in check would stop at the first.
	if cfg.Verify != nil {
		if err := cfg.Verify(p, res); err != nil {
			return nil, fmt.Errorf("pack: install verification: %w", err)
		}
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("pack: install produced invalid program: %w", err)
	}
	o.Count(obs.PackLinks.Name, int64(res.Links))
	o.Count(obs.PackLaunchPoints.Name, int64(res.LaunchPoints))
	o.Count(obs.PackMonitors.Name, int64(res.Monitors))
	if o.Enabled() {
		for _, pk := range pkgs {
			linked := 0
			for _, e := range pk.Exits {
				if e.Linked != nil {
					linked++
				}
			}
			o.Observe(obs.PackLinksPerPackage.Name, float64(linked))
		}
	}
	return res, nil
}

// linkChoice is one exit retarget decision.
type linkChoice struct {
	exit   *Exit
	pkg    *Package
	target *prog.Block
}

// chooseOrdering evaluates orderings of a same-root package group and
// returns the best ordering with its link set. Linking follows the paper's
// two rules: an exit links to the first compatible package to its right
// (wrapping), and compatibility means the sibling holds a copy of the
// exit's target block under the identical inlining context.
func chooseOrdering(cfg Config, group []*Package) ([]*Package, []linkChoice) {
	n := len(group)
	var best []*Package
	var bestLinks []linkChoice
	bestRank := -1.0

	consider := func(perm []*Package) {
		links := resolveLinks(perm)
		rank := rankOrdering(perm, links)
		if rank > bestRank {
			bestRank = rank
			best = append([]*Package(nil), perm...)
			bestLinks = links
		}
	}

	if n <= cfg.MaxExhaustiveOrder {
		permute(group, consider)
	} else {
		consider(group)
	}
	return best, bestLinks
}

// resolveLinks computes, for the given circular ordering, each exit's link
// target: the first package to the right holding a same-context copy of
// the exit's original target block.
func resolveLinks(ordered []*Package) []linkChoice {
	var out []linkChoice
	n := len(ordered)
	for i, pk := range ordered {
		for _, e := range pk.Exits {
			for step := 1; step < n; step++ {
				q := ordered[(i+step)%n]
				if c := q.CopyOf(e.Target, e.Ctx); c != nil {
					out = append(out, linkChoice{exit: e, pkg: q, target: c})
					break
				}
			}
		}
	}
	return out
}

// rankOrdering scores an ordering per §3.3.4: each package's ratio is its
// incoming link count over its branch count; the rank accumulates
// left-to-right with a multiplicative weight.
func rankOrdering(ordered []*Package, links []linkChoice) float64 {
	incoming := make(map[*Package]int, len(ordered))
	for _, lc := range links {
		incoming[lc.pkg]++
	}
	rank := 0.0
	weight := 1.0
	for i, pk := range ordered {
		den := pk.Branches
		if den == 0 {
			den = 1
		}
		ratio := float64(incoming[pk]) / float64(den)
		if i == 0 {
			weight = ratio
			rank = ratio
			continue
		}
		weight *= ratio
		rank += weight
	}
	return rank
}

// permute invokes f on every permutation of xs (Heap's algorithm).
func permute(xs []*Package, f func([]*Package)) {
	perm := append([]*Package(nil), xs...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(len(perm))
}

// patchLaunchPoints retargets original-code arcs and call sites into the
// ordered group's packages. The left-most package holding an entry block
// gets precedence when entries overlap (§3.3.4).
func patchLaunchPoints(p *prog.Program, ordered []*Package) int {
	// Union of original entry blocks, first-package-first.
	type launch struct {
		copyBlock *prog.Block
		pkg       *Package
	}
	targets := make(map[*prog.Block]launch)
	for _, pk := range ordered {
		for oe, c := range pk.Entries {
			if _, claimed := targets[oe]; !claimed {
				targets[oe] = launch{c, pk}
			}
		}
	}
	if len(targets) == 0 {
		return 0
	}
	root := ordered[0].Root
	count := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			// Inside package code only calls are retargeted: residual
			// calls to a packaged root (recursion past the inlined copy,
			// non-inlinable callees) re-enter the root's own package. Arcs
			// are left alone — exits transfer to original code unless
			// package linking retargeted them.
			if !f.IsPackage {
				if b.Kind == prog.TermBranch {
					if l, ok := targets[b.Taken]; ok {
						b.Taken = l.copyBlock
						count++
					}
				}
				if b.Kind == prog.TermFall || b.Kind == prog.TermBranch || b.Kind == prog.TermCall {
					if l, ok := targets[b.Next]; ok {
						b.Next = l.copyBlock
						count++
					}
				}
			}
			if b.Kind == prog.TermCall && b.Callee == root {
				if l, ok := targets[root.Entry()]; ok && l.pkg.Fn.Entry() == l.copyBlock {
					b.Callee = l.pkg.Fn
					count++
				}
			}
		}
	}
	return count
}
