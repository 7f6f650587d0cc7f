// The store's one profile protocol, and the store-aware single-program
// pipeline the CLIs (vpack, vpdump) share.
//
// No store.* metrics are emitted on the single-program path: its trace
// is the golden-trace regression surface, and a cold run with a fresh
// store must stay byte-identical to a storeless run. Packaging is never
// served from the store here: the CLIs report live region and package
// structures the decoded artifacts do not carry.
package cas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/prog"
)

// ProfileTimed is core.ProfileTimed served from s, the store's one
// profile protocol, which report.RunSuite and PipelineObserved share:
// when s holds both the profile artifact under (ImageHash, ProfileKey)
// and the baseline under (ImageHash, MachineKey), they are returned with
// hit set and nothing runs. Otherwise the profile runs (always, for a nil
// s) and both are written through. Read problems degrade to a run;
// writes are best effort, as Put fails only on a closed store and the
// owner's Flush or Close reports persistence problems.
func ProfileTimed(s *Store, cfg core.Config, mc cpu.Config, img *prog.Image, o obs.Observer) (pa *core.ProfileArtifact, base cpu.TimingStats, hit bool, err error) {
	if s == nil {
		pa, base, err = core.ProfileTimed(cfg, mc, img, o)
		return pa, base, false, err
	}
	imageHash, profileKey, machineKey := core.ImageHash(img), cfg.ProfileKey(), MachineKey(mc)
	if pa, err = s.GetProfileArtifact(imageHash, profileKey); err == nil {
		if base, err = s.GetBaseline(imageHash, machineKey); err == nil {
			return pa, base, true, nil
		}
	}
	if pa, base, err = core.ProfileTimed(cfg, mc, img, o); err != nil {
		return nil, cpu.TimingStats{}, false, err
	}
	_ = s.PutProfileArtifact(imageHash, profileKey, pa)
	_ = s.PutBaseline(imageHash, machineKey, base)
	return pa, base, false, nil
}

// PipelineObserved is core.RunObserved with the profile served through
// ProfileTimed: same spans, same counters, same Outcome, except that a
// store hit skips the profile span. s may be nil.
func PipelineObserved(s *Store, cfg core.Config, mc cpu.Config, p *prog.Program, o obs.Observer) (*core.Outcome, error) {
	sp := o.StartSpan(obs.StagePipeline)
	defer sp.End()
	img, err := p.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize: %w", err)
	}
	pa, base, _, err := ProfileTimed(s, cfg, mc, img, o)
	if err != nil {
		return nil, err
	}
	return core.PackageObserved(cfg, mc, p, img, pa, base, o)
}
