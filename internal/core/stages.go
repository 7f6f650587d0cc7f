// Staged pipeline API: the monolithic Run flow decomposed into first-class,
// independently invokable stages exchanging typed, serializable artifacts.
//
//	ProfileStage  (program image)            -> *ProfileArtifact
//	RegionStage   (image, ProfileArtifact)   -> *RegionArtifact
//	PackageStage  (program, RegionArtifact)  -> *PackageSet
//	Outcome.Evaluate                         -> *Evaluation
//
// Each stage can resume from an artifact decoded out of JSON — the basis
// of the vpackd continuous-optimization daemon, which accumulates
// streamed profiles, re-runs the region and package stages in the
// background and serves the resulting PackageSets back out. Compose is
// the one composition of stages 2 and 3 that Run/RunObserved (through
// PackageObserved), the suite and vpackd share; its observer stream is
// byte-identical to the pre-staged monolith (TestTraceGoldenSchema locks
// this).
package core

import (
	"fmt"
	"sort"

	"repro/internal/cpu"
	"repro/internal/equiv"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pack"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
	"repro/internal/verify"
)

// ProfileStage runs stage 1: the program executes to completion under the
// Hot Spot Detector on the functional step loop and the filtered phase
// database is wrapped into a ProfileArtifact stamped with the image hash
// and profile key. obsFn, when non-nil, receives every retired
// instruction.
func ProfileStage(cfg Config, img *prog.Image, obsFn func(*cpu.StepInfo)) (*ProfileArtifact, error) {
	db, st, err := profile(cfg, stepDriver(img, cfg.ProfileLimit, obsFn), obs.Nop{})
	if err != nil {
		return nil, err
	}
	return newProfileArtifact(cfg, img, db, st), nil
}

// ProfileTimed is stage 1 on the timed block engine, reporting to an
// observer: one run under mc yields both the profile artifact and the
// image's baseline TimingStats. The observer sees a "profile" span, a
// PhaseDetected or PhaseFiltered event per detection, and the profile.*
// counters; the artifact is exactly ProfileStage's.
func ProfileTimed(cfg Config, mc cpu.Config, img *prog.Image, o obs.Observer) (*ProfileArtifact, cpu.TimingStats, error) {
	var base cpu.TimingStats
	db, st, err := profile(cfg, timedDriver(mc, img, cfg.ProfileLimit, &base), o)
	if err != nil {
		return nil, cpu.TimingStats{}, err
	}
	return newProfileArtifact(cfg, img, db, st), base, nil
}

// RegionStage runs stage 2: phase selection (detection-weight order, the
// MaxPhases cap) followed by per-phase region identification (§3.2)
// against img, which must hash to the artifact's origin image —
// otherwise the stage fails with an ErrStaleArtifact-wrapped error.
//
// On success the artifact carries one region per usable phase in
// selection order. When every phase is skipped the artifact (with its
// skip count) is returned alongside an ErrNoPhases-wrapped error.
func RegionStage(cfg Config, img *prog.Image, pa *ProfileArtifact) (*RegionArtifact, error) {
	return RegionStageObserved(cfg, img, pa, obs.Nop{})
}

// RegionStageObserved is RegionStage reporting to an observer: the filter
// and region stage spans, PhaseSkipped events and the filter.*/region.*
// counters.
func RegionStageObserved(cfg Config, img *prog.Image, pa *ProfileArtifact, o obs.Observer) (*RegionArtifact, error) {
	return regionStage(cfg, img, ImageHash(img), pa, o)
}

// regionStage is RegionStageObserved on img, whose hash is imgHash.
func regionStage(cfg Config, img *prog.Image, imgHash uint64, pa *ProfileArtifact, o obs.Observer) (*RegionArtifact, error) {
	if imgHash != pa.ProgramHash {
		return nil, fmt.Errorf("core: region stage: profile of image %016x applied to image %016x: %w",
			pa.ProgramHash, imgHash, ErrStaleArtifact)
	}
	db := pa.DB()

	// Phase selection: order by detection weight and apply the MaxPhases
	// cap. The software filter proper runs inline during profiling; this
	// is its post-pass over the accumulated database.
	fsp := o.StartSpan(obs.StageFilter)
	phases := append([]*phasedb.Phase(nil), db.Phases...)
	sort.SliceStable(phases, func(i, j int) bool {
		return phases[i].Detections > phases[j].Detections
	})
	if cfg.MaxPhases > 0 && len(phases) > cfg.MaxPhases {
		phases = phases[:cfg.MaxPhases]
	}
	o.Count(obs.FilterSelectedPhases.Name, int64(len(phases)))
	fsp.End()

	ra := &RegionArtifact{
		Schema:      RegionArtifactSchema,
		ProgramHash: pa.ProgramHash,
		TotalPhases: len(db.Phases),
		boundTo:     img.Prog,
	}
	if h, err := pa.Hash(); err == nil {
		ra.ProfileHash = h
	}

	// Region identification per selected phase (§3.2).
	rsp := o.StartSpan(obs.StageRegion)
	for _, ph := range phases {
		r, err := region.IdentifyObserved(cfg.Region, img, ph, o)
		if err != nil {
			ra.SkippedPhases++
			o.Emit(obs.Event{Kind: obs.PhaseSkipped, Phase: ph.ID, Name: err.Error()})
			continue
		}
		if cfg.Verify {
			if err := verifyCheck(o, verify.Region("region", cfg.Region, img, ph, r)); err != nil {
				rsp.End()
				return ra, fmt.Errorf("core: region verification (phase %d): %w", ph.ID, err)
			}
		}
		ra.regions = append(ra.regions, r)
	}
	rsp.End()
	if len(ra.regions) == 0 {
		return ra, fmt.Errorf("core: %w (%d phases, %d skipped)", ErrNoPhases, len(db.Phases), ra.SkippedPhases)
	}
	return ra, nil
}

// PackageStage runs stage 3 on p, mutating it: package construction
// (§3.3), installation and linking, and the §5.4 optimization passes;
// the set keeps the packed program's image (PackedImage). p's image must
// hash to the region artifact's origin (ErrStaleArtifact otherwise) — a
// Clone of the profiled program qualifies, since cloning preserves block
// IDs and layout.
func PackageStage(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact) (*PackageSet, error) {
	return PackageStageObserved(cfg, p, img, ra, obs.Nop{})
}

// PackageStageObserved is PackageStage reporting to an observer: the
// package and optimize stage spans, per-package events from construction
// and linking, and PhaseSkipped events for regions that built no package.
// With Config.Equiv each optimized package is proved by equiv.Prove
// against its pre-optimization snapshot.
func PackageStageObserved(cfg Config, p *prog.Program, img *prog.Image, ra *RegionArtifact, o obs.Observer) (*PackageSet, error) {
	return packageStage(cfg, p, ImageHash(img), ra, o)
}

// packageStage is PackageStageObserved on p, whose image hashes to imgHash.
func packageStage(cfg Config, p *prog.Program, imgHash uint64, ra *RegionArtifact, o obs.Observer) (*PackageSet, error) {
	if imgHash != ra.ProgramHash {
		return nil, fmt.Errorf("core: package stage: regions of image %016x applied to image %016x: %w",
			ra.ProgramHash, imgHash, ErrStaleArtifact)
	}
	regions, err := ra.bind(p)
	if err != nil {
		return nil, err
	}

	// Step 3: package construction (§3.3).
	skipped := 0
	psp := o.StartSpan(obs.StagePackage)
	var pkgs []*pack.Package
	for _, r := range regions {
		ps, err := pack.BuildPhaseObserved(cfg.Pack, p, r, o)
		if err != nil {
			skipped++
			o.Emit(obs.Event{Kind: obs.PhaseSkipped, Phase: r.PhaseID, Name: err.Error()})
			continue
		}
		pkgs = append(pkgs, ps...)
	}
	psp.End()
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoPackages)
	}
	pcfg := cfg.Pack
	if cfg.Verify {
		// Sandwich hook: InstallObserved runs this before its built-in
		// structural check, so a broken CFG surfaces as link-stage
		// diagnostics.
		pcfg.Verify = func(p *prog.Program, res *pack.Result) error {
			if err := verifyCheck(o, verify.Program("link", p)); err != nil {
				return err
			}
			return verifyCheck(o, verify.Packages("link", p, res))
		}
	}
	res, err := pack.InstallObserved(pcfg, p, pkgs, o)
	if err != nil {
		return nil, err
	}
	// Past installation the program carries the packages, so failures
	// below still surface the live result: the partial set mirrors the
	// monolith's Outcome.Pack being set before optimization could fail.
	var certs []*equiv.Certificate
	partial := func(err error) (*PackageSet, error) {
		set := &PackageSet{Schema: PackageSetSchema, ProgramHash: ra.ProgramHash, res: res, packed: p}
		set.SkippedPhases = skipped
		set.Equiv = certs
		return set, err
	}

	// Translation validation (Config.Equiv) snapshots every package
	// function now — after installation and linking, before the passes
	// mutate them — so each optimized package can be proved against the
	// region code it replaced.
	fns := make([]*prog.Func, len(res.Packages))
	entries := make([][]*prog.Block, len(res.Packages))
	for i, pk := range res.Packages {
		fns[i] = pk.Fn
		for _, c := range pk.Entries {
			entries[i] = append(entries[i], c)
		}
	}
	var snaps []*equiv.Snapshot
	if cfg.Equiv {
		snaps = equiv.CaptureAll(p, fns, entries)
	}

	// Optimization (§5.4): weight calculation, relayout, rescheduling.
	regByPhase := make(map[int]*region.Region, len(regions))
	for _, r := range regions {
		regByPhase[r.PhaseID] = r
	}
	osp := o.StartSpan(obs.StageOptimize)
	ps := cfg.passes()
	var rec *opt.PassRecord
	if cfg.Verify || cfg.Equiv {
		rec = &opt.PassRecord{}
		ps.Record = rec
	}
	for i, pk := range res.Packages {
		r := regByPhase[pk.PhaseID]
		if r == nil {
			continue
		}
		if cfg.Verify {
			// Passes mutate only pk.Fn, so the per-pass sandwich checks
			// just that function; the stage-boundary checks below re-prove
			// the whole program.
			fn := pk.Fn
			ps.Check = func(pass string) error {
				return verifyCheck(o, verify.Func("optimize/"+pass, p, fn))
			}
		}
		if err := opt.ApplyPasses(ps, p, pk.Fn, entries[i], r, o); err != nil {
			osp.End()
			return partial(fmt.Errorf("core: pass verification (%s): %w", pk.Fn.Name, err))
		}
		if cfg.Equiv {
			cert, eerr := equiv.Prove(snaps[i], equiv.Config{MaxPaths: cfg.EquivMaxPaths})
			if cert != nil {
				certs = append(certs, cert)
				rec.Equiv = certs
				o.Count(obs.EquivPackages.Name, 1)
				o.Count(obs.EquivPathsProved.Name, int64(cert.PathsProved))
			}
			if eerr != nil {
				n := len(equiv.Counterexamples(eerr))
				if n == 0 {
					n = 1
				}
				o.Count(obs.EquivViolations.Name, int64(n))
				osp.End()
				return partial(fmt.Errorf("core: translation validation (%s): %w", pk.Fn.Name, eerr))
			}
		}
	}
	osp.End()

	if cfg.Verify {
		// The CFG check goes first, alone: the package, pass and schedule
		// rules assume a well-formed CFG. prog.Verify below re-checks the
		// structural rules for runs without the verifier.
		if err := verifyCheck(o, verify.Program("optimize", p)); err != nil {
			return partial(fmt.Errorf("core: post-optimization verification: %w", err))
		}
		checks := []error{
			verifyCheck(o, verify.Packages("optimize", p, res)),
			verifyCheck(o, verify.Passes("optimize", p, rec)),
			verifyCheck(o, verify.Schedule("optimize", rec)),
		}
		for _, err := range checks {
			if err != nil {
				return partial(fmt.Errorf("core: post-optimization verification: %w", err))
			}
		}
	}
	if err := p.Verify(); err != nil {
		return partial(fmt.Errorf("core: packed program invalid: %w", err))
	}
	img, err := p.Linearize()
	if err != nil {
		return partial(fmt.Errorf("core: linearize packed: %w", err))
	}
	set := newPackageSet(p, img, res, ra, ra.ProgramHash)
	set.SkippedPhases = skipped
	set.Equiv = certs
	return set, nil
}

// Compose runs the region stage and the package stage, which ends with
// the packed linearize, on p (mutating it) under one observer. img is p's
// image and imgHash its hash, which every caller already holds, so no
// stage hashes the image; a profile of another image fails with
// ErrStaleArtifact. On failure Compose returns what was built, as the
// stages do.
func Compose(cfg Config, p *prog.Program, img *prog.Image, imgHash uint64, pa *ProfileArtifact, o obs.Observer) (*RegionArtifact, *PackageSet, error) {
	ra, err := regionStage(cfg, img, imgHash, pa, o)
	if err != nil {
		return ra, nil, err
	}
	set, err := packageStage(cfg, p, imgHash, ra, o)
	return ra, set, err
}

// PackageObserved runs Compose on p (mutating it) from a profile
// artifact of img, p's image, and the baseline base its run took under
// mc, reporting to an observer, and builds the whole Outcome: the machine
// and baseline, the artifact's phase database and profile stats, the
// regions, the packing result, the equivalence certificates and the
// packed image. On failure the Outcome keeps what was built: the regions
// identified so far survive a region- or package-stage failure, and the
// skip counts of both stages sum into SkippedPhases.
func PackageObserved(cfg Config, mc cpu.Config, p *prog.Program, img *prog.Image, pa *ProfileArtifact, base cpu.TimingStats, o obs.Observer) (*Outcome, error) {
	out := &Outcome{
		Packed:  p,
		Machine: mc,
		Base:    base,
		DB:      pa.DB(),
		Profile: pa.Stats,
		Variant: Variant{Inference: cfg.Region.EnableInference, Linking: cfg.Pack.EnableLinking},
	}
	ra, set, err := Compose(cfg, p, img, pa.ProgramHash, pa, o)
	if ra != nil {
		out.SkippedPhases += ra.SkippedPhases
		out.Regions = ra.regions // bound to p, img's program
	}
	if set != nil {
		out.SkippedPhases += set.SkippedPhases
		out.Pack = set.Result()
		out.Equiv = set.Equiv
		out.packedImg = set.img
	}
	return out, err
}
