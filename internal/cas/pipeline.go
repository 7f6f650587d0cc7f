// PipelineObserved: the store-aware single-program pipeline entry the
// CLIs (vpack, vpdump) share. It is core.RunObserved — same spans, same
// counters, same Outcome — except that the profile stage is served from
// the store when a matching artifact exists and written through when it
// does not.
//
// Deliberately, no store.* metrics are emitted here: the single-program
// trace is the golden-trace regression surface, and a cold run with a
// fresh store must stay byte-identical to a storeless run. (The suite
// and the daemon, whose traces are not golden-gated, do emit store
// traffic.) Packaging is also never served from the store on this path:
// the CLIs report live region/package structures the decoded artifacts
// do not carry. The profile pass dominates single-run wall time, so the
// reuse that matters is still captured.
package cas

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prog"
)

// PipelineObserved runs the full pipeline on p, reusing a stored profile
// for (ImageHash(p), cfg.ProfileKey()) when s is non-nil and has one,
// and storing the freshly computed profile otherwise. Store read
// problems (missing, corrupt) degrade to a cold run; store write
// problems are returned, since the caller asked for persistence.
func PipelineObserved(s *Store, cfg core.Config, p *prog.Program, o obs.Observer) (*core.Outcome, error) {
	if s == nil {
		return core.RunObserved(cfg, p, o)
	}
	sp := o.StartSpan(obs.StagePipeline)
	defer sp.End()
	img, err := p.Linearize()
	if err != nil {
		return nil, fmt.Errorf("core: linearize: %w", err)
	}
	imageHash := core.ImageHash(img)
	profileKey := cfg.ProfileKey()
	pa, err := s.GetProfileArtifact(imageHash, profileKey)
	if err != nil {
		pa, err = core.ProfileStageObserved(cfg, img, nil, o)
		if err != nil {
			return nil, err
		}
		if err := s.PutProfileArtifact(imageHash, profileKey, pa); err != nil {
			return nil, fmt.Errorf("cas: store profile: %w", err)
		}
	}
	return core.PackageObserved(cfg, p, img, pa, o)
}
