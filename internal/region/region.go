// Package region implements step 2 of Vacuum Packing (§3.2): mapping one
// phase's hot-spot branch records onto the program CFG, inferring block and
// arc temperatures from the incomplete hardware profile, and heuristically
// growing the hot region.
package region

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/phasedb"
	"repro/internal/prog"
)

// Temp is a block or arc temperature.
type Temp uint8

// Temperatures. Blocks start Unknown; arcs of profiled branches start Hot
// or Cold; inference and growth assign the rest.
const (
	Unknown Temp = iota
	Hot
	Cold
)

func (t Temp) String() string {
	switch t {
	case Hot:
		return "hot"
	case Cold:
		return "cold"
	default:
		return "unknown"
	}
}

// ArcKey identifies a CFG arc by its source block and direction: Taken is
// true for the taken direction of a conditional branch, false for
// fallthrough/jump/continuation arcs.
type ArcKey struct {
	From  *prog.Block
	Taken bool
}

// Dest returns the arc's destination block.
func (k ArcKey) Dest() *prog.Block {
	if k.Taken {
		return k.From.Taken
	}
	return k.From.Next
}

// OutArcs appends b's outgoing CFG arcs to dst.
func OutArcs(b *prog.Block, dst []ArcKey) []ArcKey {
	switch b.Kind {
	case prog.TermFall, prog.TermCall:
		if b.Next != nil {
			dst = append(dst, ArcKey{b, false})
		}
	case prog.TermBranch:
		dst = append(dst, ArcKey{b, true})
		dst = append(dst, ArcKey{b, false})
	}
	return dst
}

// Config controls identification. Zero values take the paper's defaults via
// DefaultConfig.
type Config struct {
	// HotArcFraction: an arc direction carrying at least this fraction of
	// its branch's flow is Hot (25% in the paper).
	HotArcFraction float64
	// HotArcWeight: an arc whose weight exceeds the HSD's candidate branch
	// execution threshold is Hot regardless of fraction. The paper states
	// the rule against saturated 9-bit counters, where 16 is ~3.1% of the
	// counter range; when a detection window leaves a branch's counter
	// below saturation, the threshold is prorated by exec/CounterMax so it
	// keeps that meaning.
	HotArcWeight uint64
	// CounterMax is the saturation value of the BBB's executed counters
	// (511 for the paper's 9-bit counters).
	CounterMax uint64
	// MaxGrowBlocks bounds heuristic predecessor growth per entry block
	// (MAX_BLOCKS = 1 in the paper).
	MaxGrowBlocks int
	// EnableInference enables the full Figure 4 rule set. When false —
	// the paper's "no inference" ablation — temperatures only propagate
	// through blocks that do not end in a conditional branch, and no Cold
	// inference is performed; the recorded branch data is treated as
	// complete.
	EnableInference bool
}

// DefaultConfig returns the paper's parameters with inference enabled.
func DefaultConfig() Config {
	return Config{
		HotArcFraction:  0.25,
		HotArcWeight:    16,
		CounterMax:      511,
		MaxGrowBlocks:   1,
		EnableInference: true,
	}
}

// Region is one phase's identified hot region over the original program.
type Region struct {
	PhaseID int

	BlockTemp   map[*prog.Block]Temp
	BlockWeight map[*prog.Block]uint64
	// TakenProb holds measured taken probabilities for blocks whose
	// conditional branch appeared in the hot-spot record.
	TakenProb map[*prog.Block]float64

	ArcTemp   map[ArcKey]Temp
	ArcWeight map[ArcKey]uint64

	// Stats for reporting.
	ProfiledBranches int // hot-spot branches that mapped onto blocks
	UnmappedBranches int // hot-spot PCs with no block (should be 0)
	InferredHot      int // blocks made Hot by inference
	InferredCold     int // blocks made Cold by inference
	GrownBlocks      int // blocks added by heuristic growth
}

// HotBlocks returns the region's Hot blocks, grouped per function, with
// deterministic ordering (function appearance order, block layout order).
func (r *Region) HotBlocks() map[*prog.Func][]*prog.Block {
	out := make(map[*prog.Func][]*prog.Block)
	for b, t := range r.BlockTemp {
		if t == Hot {
			out[b.Fn] = append(out[b.Fn], b)
		}
	}
	for _, blocks := range out {
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	}
	return out
}

// HotFuncs returns the functions containing Hot blocks in program order.
func (r *Region) HotFuncs(p *prog.Program) []*prog.Func {
	hot := r.HotBlocks()
	var out []*prog.Func
	for _, f := range p.Funcs {
		if len(hot[f]) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// NumHot counts Hot blocks.
func (r *Region) NumHot() int {
	n := 0
	for _, t := range r.BlockTemp {
		if t == Hot {
			n++
		}
	}
	return n
}

// Identify runs hot-spot mapping, temperature inference and heuristic
// growth for one phase against the original program image.
func Identify(cfg Config, img *prog.Image, ph *phasedb.Phase) (*Region, error) {
	return IdentifyObserved(cfg, img, ph, obs.Nop{})
}

// IdentifyObserved is Identify reporting to an observer: a successful
// identification emits one RegionGrown event (N = heuristically grown
// blocks) and bumps the region.* counters.
func IdentifyObserved(cfg Config, img *prog.Image, ph *phasedb.Phase, o obs.Observer) (*Region, error) {
	if cfg.HotArcFraction == 0 {
		cfg.HotArcFraction = 0.25
	}
	if cfg.HotArcWeight == 0 {
		cfg.HotArcWeight = 16
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = 511
	}
	r := &Region{
		PhaseID:     ph.ID,
		BlockTemp:   make(map[*prog.Block]Temp),
		BlockWeight: make(map[*prog.Block]uint64),
		TakenProb:   make(map[*prog.Block]float64),
		ArcTemp:     make(map[ArcKey]Temp),
		ArcWeight:   make(map[ArcKey]uint64),
	}
	img.Prog.ComputePreds()

	// §3.2.1: initialize temperatures from the hot-spot record. The phase
	// database accumulates counts over every detection window merged into
	// the phase; weights are normalized back to a single window so the
	// HSD-derived thresholds keep their hardware-counter meaning (the
	// paper instead discards redundant records outright).
	for _, bs := range ph.SortedBranches() {
		b := img.BranchBlock(bs.PC)
		if b == nil {
			r.UnmappedBranches++
			continue
		}
		r.ProfiledBranches++
		exec := bs.WindowExec()
		taken := bs.WindowTaken()
		r.BlockTemp[b] = Hot
		r.BlockWeight[b] = exec
		frac := bs.TakenFraction()
		r.TakenProb[b] = frac

		r.setArcFromProfile(cfg, ArcKey{b, true}, taken, frac, exec)
		r.setArcFromProfile(cfg, ArcKey{b, false}, exec-taken, 1-frac, exec)
	}
	if r.ProfiledBranches == 0 {
		return r, fmt.Errorf("region: phase %d: no hot-spot branch mapped onto a block", ph.ID)
	}

	r.infer(cfg)
	r.grow(cfg)
	o.Emit(obs.Event{Kind: obs.RegionGrown, Phase: ph.ID, N: int64(r.GrownBlocks)})
	o.Count(obs.RegionProfiledBranches.Name, int64(r.ProfiledBranches))
	o.Count(obs.RegionInferredHot.Name, int64(r.InferredHot))
	o.Count(obs.RegionInferredCold.Name, int64(r.InferredCold))
	o.Count(obs.RegionGrownBlocks.Name, int64(r.GrownBlocks))
	o.Observe(obs.RegionHotBlocks.Name, float64(r.NumHot()))
	return r, nil
}

func (r *Region) setArcFromProfile(cfg Config, k ArcKey, weight uint64, frac float64, exec uint64) {
	r.ArcWeight[k] = weight
	// Prorate the weight threshold when the window left the counter
	// unsaturated, so "weight > 16" keeps its saturated-counter meaning.
	threshold := cfg.HotArcWeight
	if exec < cfg.CounterMax {
		threshold = exec * cfg.HotArcWeight / cfg.CounterMax
		if threshold == 0 {
			threshold = 1
		}
	}
	if frac >= cfg.HotArcFraction || weight > threshold {
		r.ArcTemp[k] = Hot
	} else {
		r.ArcTemp[k] = Cold
	}
}

// inArcs appends the in-function CFG arcs into b.
func inArcs(b *prog.Block, dst []ArcKey) []ArcKey {
	var outs []ArcKey
	for _, p := range b.Preds() {
		if p.Fn != b.Fn {
			continue
		}
		outs = OutArcs(p, outs[:0])
		for _, k := range outs {
			if k.Dest() == b {
				dst = append(dst, k)
			}
		}
	}
	return dst
}

// infer runs the Figure 4 fixpoint.
func (r *Region) infer(cfg Config) {
	// Work over the functions that contain any profiled block; inference
	// can spread into called functions, so track a growing function set.
	changed := true
	for changed {
		changed = false
		// Snapshot hot-involved functions: blocks can only gain
		// temperature through arcs from already-tempered blocks or calls
		// from Hot blocks, so iterating functions reachable in r suffices.
		funcs := r.involvedFuncs()
		for _, f := range funcs {
			for _, b := range f.Blocks {
				if r.stepBlock(cfg, b) {
					changed = true
				}
			}
		}
	}
}

func (r *Region) involvedFuncs() []*prog.Func {
	seen := make(map[*prog.Func]bool)
	var out []*prog.Func
	add := func(f *prog.Func) {
		if f != nil && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for b := range r.BlockTemp {
		add(b.Fn)
	}
	for k := range r.ArcTemp {
		add(k.From.Fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// stepBlock applies every applicable inference rule to b once, reporting
// whether anything changed.
func (r *Region) stepBlock(cfg Config, b *prog.Block) bool {
	changed := false
	var outs, ins []ArcKey
	outs = OutArcs(b, outs)
	ins = inArcs(b, ins)
	endsInBranch := b.Kind == prog.TermBranch

	allCold := func(arcs []ArcKey) bool {
		if len(arcs) == 0 {
			return false
		}
		for _, k := range arcs {
			if r.ArcTemp[k] != Cold {
				return false
			}
		}
		return true
	}
	anyHot := func(arcs []ArcKey) bool {
		for _, k := range arcs {
			if r.ArcTemp[k] == Hot {
				return true
			}
		}
		return false
	}

	// Statement 4 / rule b: any adjacent Hot arc makes the block Hot. With
	// inference disabled the recorded branch data is treated as complete
	// (§5.1): only blocks that do not contain a branch may be added, so a
	// block ending in an unrecorded branch stays out of the region.
	if r.BlockTemp[b] == Unknown && (anyHot(ins) || anyHot(outs)) &&
		(cfg.EnableInference || !endsInBranch) {
		r.BlockTemp[b] = Hot
		r.InferredHot++
		changed = true
	}
	// Statement 3 / rule a: all-in-Cold or all-out-Cold makes it Cold.
	// Only with full inference: without it the profile is trusted as
	// complete and no Cold blocks are inferred.
	if cfg.EnableInference && r.BlockTemp[b] == Unknown && (allCold(ins) || allCold(outs)) {
		r.BlockTemp[b] = Cold
		r.InferredCold++
		changed = true
	}

	switch r.BlockTemp[b] {
	case Cold:
		// Statement 6 / rule d: arcs of a Cold block are Cold.
		if cfg.EnableInference {
			for _, k := range append(append([]ArcKey{}, ins...), outs...) {
				if r.ArcTemp[k] == Unknown {
					r.ArcTemp[k] = Cold
					changed = true
				}
			}
		}
	case Hot:
		// Statement 7 / rules e,f: for a Hot block, if all other arcs on a
		// side are known Cold (vacuously true for a single-arc side), the
		// remaining Unknown arc is Hot. With inference disabled this only
		// applies to blocks that do not end in a conditional branch.
		if cfg.EnableInference || !endsInBranch {
			for _, side := range [2][]ArcKey{ins, outs} {
				unknown := -1
				othersCold := true
				for i, k := range side {
					switch r.ArcTemp[k] {
					case Unknown:
						if unknown >= 0 {
							othersCold = false
						}
						unknown = i
					case Hot:
						// A Hot sibling arc does not block rule e/f in the
						// paper's formulation ("all other arcs ... have a
						// known, Cold temperature" fails), so it does.
						othersCold = false
					}
				}
				if unknown >= 0 && othersCold {
					r.ArcTemp[side[unknown]] = Hot
					changed = true
				}
			}
		}
		// Statement 9 / hot call: callee prologue becomes Hot.
		if b.Kind == prog.TermCall && b.Callee != nil {
			if e := b.Callee.Entry(); e != nil && r.BlockTemp[e] != Hot {
				r.BlockTemp[e] = Hot
				r.InferredHot++
				changed = true
			}
		}
	}
	return changed
}

// grow performs the two §3.2.3 heuristic expansions.
func (r *Region) grow(cfg Config) {
	// Step 1: include Unknown arcs between two Hot blocks.
	var outs []ArcKey
	for b, t := range r.BlockTemp {
		if t != Hot {
			continue
		}
		outs = OutArcs(b, outs[:0])
		for _, k := range outs {
			if r.ArcTemp[k] == Unknown && r.BlockTemp[k.Dest()] == Hot {
				r.ArcTemp[k] = Hot
			}
		}
	}
	// Step 2: expand entry blocks into predecessors, avoiding Cold blocks
	// and arcs, until another Hot block is reached; at most MaxGrowBlocks
	// added per entry.
	if cfg.MaxGrowBlocks <= 0 {
		return
	}
	var ins []ArcKey
	for _, e := range r.entryBlocks() {
		budget := cfg.MaxGrowBlocks
		frontier := []*prog.Block{e}
		for budget > 0 && len(frontier) > 0 {
			b := frontier[0]
			frontier = frontier[1:]
			ins = inArcs(b, ins[:0])
			for _, k := range ins {
				if budget <= 0 {
					break
				}
				p := k.From
				if r.ArcTemp[k] == Cold || r.BlockTemp[p] == Cold {
					continue
				}
				if r.BlockTemp[p] == Hot {
					// Reached existing hot code: connect and stop here.
					if r.ArcTemp[k] == Unknown {
						r.ArcTemp[k] = Hot
					}
					continue
				}
				r.BlockTemp[p] = Hot
				if r.ArcTemp[k] == Unknown {
					r.ArcTemp[k] = Hot
				}
				r.GrownBlocks++
				budget--
				frontier = append(frontier, p)
			}
		}
	}
}

// entryBlocks returns Hot blocks with no Hot forward in-arc — back edges
// are ignored, per §3.3.2 — i.e. the places original code would enter the
// region.
func (r *Region) entryBlocks() []*prog.Block {
	backByFunc := make(map[*prog.Func]map[prog.Edge]bool)
	var entries []*prog.Block
	var ins []ArcKey
	for b, t := range r.BlockTemp {
		if t != Hot {
			continue
		}
		back := backByFunc[b.Fn]
		if back == nil {
			back = prog.BackEdges(b.Fn)
			backByFunc[b.Fn] = back
		}
		hotIn := false
		ins = inArcs(b, ins[:0])
		for _, k := range ins {
			if r.ArcTemp[k] == Hot && !back[prog.Edge{From: k.From, To: b}] {
				hotIn = true
				break
			}
		}
		if !hotIn {
			entries = append(entries, b)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}
