// Package trace implements the baseline the paper positions Vacuum
// Packing against: trace-based extraction in the style of Dynamo, rePLay
// and the other run-time systems §1-§2 discuss. From the same Hot Spot
// Detector profile, it forms superblock traces — single-entry, multi-exit
// dominant paths — and deploys them as relocated code with launch points,
// instead of forming phase-wide packages.
//
// Traces follow each branch's dominant direction while it is biased enough
// (FollowThreshold), stop at calls, returns and length caps, and may close
// back on their own head to keep loops inside the trace. What they cannot
// do — by construction — is include both directions of an unbiased branch,
// span a call, or specialize per phase beyond the profile they grew from;
// those limits are exactly the scope argument of §2, and the comparison
// bench (BenchmarkBaselineTraces) measures their cost.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/phasedb"
	"repro/internal/prog"
)

// Config controls trace formation.
type Config struct {
	// FollowThreshold is the minimum probability of a branch direction for
	// the trace to follow it; below it the trace ends (classic trace
	// growing uses 0.6-0.7).
	FollowThreshold float64
	// MaxBlocks caps a single trace's length.
	MaxBlocks int
	// MaxTraces caps the total number of traces deployed.
	MaxTraces int
}

// DefaultConfig returns conventional trace-formation parameters.
func DefaultConfig() Config {
	return Config{
		FollowThreshold: 0.65,
		MaxBlocks:       24,
		MaxTraces:       64,
	}
}

// Trace is one deployed trace.
type Trace struct {
	Fn     *prog.Func
	Seed   *prog.Block // original seed block
	Blocks int         // trace length in blocks (excluding exit stubs)
	Loops  bool        // last block closes back to the trace head
}

// Result summarizes trace deployment.
type Result struct {
	Traces       []*Trace
	LaunchPoints int
	OrigInsts    int
	AddedInsts   int
}

// CodeGrowth returns AddedInsts/OrigInsts.
func (r *Result) CodeGrowth() float64 {
	if r.OrigInsts == 0 {
		return 0
	}
	return float64(r.AddedInsts) / float64(r.OrigInsts)
}

// branchStats aggregates every phase's records per block: trace formation
// is aggregate-profile-driven, which is precisely its difference from
// phase-sensitive packaging.
func branchStats(img *prog.Image, db *phasedb.DB) map[*prog.Block]phasedb.BranchStat {
	out := make(map[*prog.Block]phasedb.BranchStat)
	for _, ph := range db.Phases {
		for _, bs := range ph.Branches {
			b := img.BranchBlock(bs.PC)
			if b == nil {
				continue
			}
			agg := out[b]
			agg.PC = bs.PC
			agg.Exec += bs.Exec
			agg.Taken += bs.Taken
			out[b] = agg
		}
	}
	return out
}

// Build forms and installs traces on p (mutating it) from the phase
// database gathered on an identically-linearizing image.
func Build(cfg Config, p *prog.Program, img *prog.Image, db *phasedb.DB) (*Result, error) {
	if cfg.FollowThreshold == 0 {
		cfg = DefaultConfig()
	}
	stats := branchStats(img, db)
	if len(stats) == 0 {
		return nil, fmt.Errorf("trace: no profiled branches")
	}
	res := &Result{OrigInsts: p.NumInsts()}

	// Seeds, hottest first: targets of profiled back edges (loop heads)
	// and entries of functions containing profiled branches — the places
	// run-time trace systems anchor their traces.
	type seed struct {
		b *prog.Block
		w uint64
	}
	seedWeight := make(map[*prog.Block]uint64)
	backByFunc := make(map[*prog.Func]map[prog.Edge]bool)
	for b, bs := range stats {
		back := backByFunc[b.Fn]
		if back == nil {
			back = prog.BackEdges(b.Fn)
			backByFunc[b.Fn] = back
		}
		for _, dst := range []*prog.Block{b.Taken, b.Next} {
			if dst != nil && back[prog.Edge{From: b, To: dst}] {
				seedWeight[dst] += bs.Exec
			}
		}
		if e := b.Fn.Entry(); e != nil {
			seedWeight[e] += bs.Exec / 4
		}
	}
	seeds := make([]seed, 0, len(seedWeight))
	for b, w := range seedWeight {
		seeds = append(seeds, seed{b, w})
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].w != seeds[j].w {
			return seeds[i].w > seeds[j].w
		}
		return seeds[i].b.ID < seeds[j].b.ID
	})

	claimed := make(map[*prog.Block]bool) // seed blocks already traced
	liveness := make(map[*prog.Func]*prog.Liveness)
	for _, sd := range seeds {
		if len(res.Traces) >= cfg.MaxTraces {
			break
		}
		if claimed[sd.b] {
			continue
		}
		tr := buildTrace(cfg, p, sd.b, stats, liveness)
		if tr == nil {
			continue
		}
		claimed[sd.b] = true
		res.Traces = append(res.Traces, tr)
	}
	if len(res.Traces) == 0 {
		return nil, fmt.Errorf("trace: no traces formed")
	}

	// Launch points: original arcs and call sites into the seeds.
	entries := make(map[*prog.Block]*launch)
	for _, tr := range res.Traces {
		if _, dup := entries[tr.Seed]; !dup {
			entries[tr.Seed] = &launch{fn: tr.Fn, entry: tr.Fn.Entry()}
		}
	}
	res.LaunchPoints = patch(p, entries)

	for _, tr := range res.Traces {
		res.AddedInsts += tr.Fn.NumInsts()
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("trace: install produced invalid program: %w", err)
	}
	return res, nil
}

type launch struct {
	fn    *prog.Func
	entry *prog.Block
}

// buildTrace grows one trace from seed (inlining through calls) and
// deploys it as a trace function.
func buildTrace(cfg Config, p *prog.Program, seedBlk *prog.Block, stats map[*prog.Block]phasedb.BranchStat, liveness map[*prog.Func]*prog.Liveness) *Trace {
	path, loops := selectPath(cfg, seedBlk, stats)
	if len(path) < 2 {
		return nil
	}
	livenessOf := func(f *prog.Func) *prog.Liveness {
		lv := liveness[f]
		if lv == nil {
			lv = prog.ComputeLiveness(f)
			liveness[f] = lv
		}
		return lv
	}
	return deployPath(p, seedBlk, path, loops, livenessOf(seedBlk.Fn), livenessOf)
}

// patch retargets original-code arcs and call sites into trace entries.
func patch(p *prog.Program, entries map[*prog.Block]*launch) int {
	count := 0
	for _, f := range p.Funcs {
		if f.IsPackage {
			continue
		}
		for _, b := range f.Blocks {
			if b.Kind == prog.TermBranch {
				if l, ok := entries[b.Taken]; ok {
					b.Taken = l.entry
					count++
				}
			}
			if b.Kind == prog.TermFall || b.Kind == prog.TermBranch || b.Kind == prog.TermCall {
				if l, ok := entries[b.Next]; ok {
					b.Next = l.entry
					count++
				}
			}
			if b.Kind == prog.TermCall {
				if l, ok := entries[b.Callee.Entry()]; ok {
					b.Callee = l.fn
					count++
				}
			}
		}
	}
	return count
}
