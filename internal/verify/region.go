package verify

import (
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
)

// Region checks one identified hot region against the phase record it was
// built from (DESIGN.md §6 invariants, promoted from the old
// region-package tests into production rules):
//
//	region/profiled-hot — every hot-spot branch that maps onto a block
//	                      left that block Hot
//	region/profiled-arc — both arc directions of a profiled branch have a
//	                      known (non-Unknown) temperature
//	region/no-cold      — with inference disabled the profile is trusted
//	                      as complete, so no block may be Cold
func Region(stage string, cfg region.Config, img *prog.Image, ph *phasedb.Phase, r *region.Region) error {
	c := &checker{stage: stage}
	c.region(cfg, img, ph, r)
	return c.err()
}

func (c *checker) region(cfg region.Config, img *prog.Image, ph *phasedb.Phase, r *region.Region) {
	for _, bs := range ph.SortedBranches() {
		b := img.BranchBlock(bs.PC)
		if b == nil {
			continue // unmapped record; counted by region.UnmappedBranches
		}
		if r.BlockTemp[b] != region.Hot {
			c.add("region/profiled-hot", nil, b,
				"profiled branch block is %v, want hot", r.BlockTemp[b])
		}
		for _, dir := range [2]bool{true, false} {
			if r.ArcTemp[region.ArcKey{From: b, Taken: dir}] == region.Unknown {
				c.add("region/profiled-arc", nil, b,
					"profiled arc (taken=%v) has unknown temperature", dir)
			}
		}
	}
	if !cfg.EnableInference {
		if r.InferredCold != 0 {
			c.add("region/no-cold", nil, nil,
				"phase %d: %d blocks inferred cold with inference disabled",
				ph.ID, r.InferredCold)
		}
		for b, t := range r.BlockTemp {
			if t == region.Cold {
				c.add("region/no-cold", nil, b,
					"block is cold with inference disabled")
			}
		}
	}
}
