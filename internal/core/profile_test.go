package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/workload"
)

// stepStream is the reference profile: the Hot Spot Detector over the
// functional step loop, with Timing.Observe on every retired instruction
// for the baseline.
func stepStream(mc cpu.Config, cfg Config, img *prog.Image, limit uint64) ([]hsd.HotSpot, cpu.TimingStats, *cpu.Machine, error) {
	var spots []hsd.HotSpot
	timing := cpu.NewTiming(mc, img)
	m, _, err := detect(cfg, stepDriver(img, limit, timing.Observe), func(h hsd.HotSpot) { spots = append(spots, h) })
	if err != nil {
		return spots, cpu.TimingStats{}, m, err
	}
	return spots, timing.Finish(), m, nil
}

// timedStream is the same profile over the timed block engine's hook.
func timedStream(mc cpu.Config, cfg Config, img *prog.Image, limit uint64) ([]hsd.HotSpot, cpu.TimingStats, *cpu.Machine, error) {
	var spots []hsd.HotSpot
	var base cpu.TimingStats
	m, _, err := detect(cfg, timedDriver(mc, img, limit, &base), func(h hsd.HotSpot) { spots = append(spots, h) })
	return spots, base, m, err
}

// sameStream reports the first record where two hot-spot streams differ.
func sameStream(t *testing.T, engine string, want, got []hsd.HotSpot) {
	t.Helper()
	for i := range min(len(want), len(got)) {
		w, g := want[i], got[i]
		if w.Seq != g.Seq || w.DetectedAtBranch != g.DetectedAtBranch || w.DetectedAtInst != g.DetectedAtInst ||
			!reflect.DeepEqual(w.Branches, g.Branches) {
			t.Errorf("%s: hot spot %d differs from the step loop:\n  step:  %+v\n  timed: %+v", engine, i, w, g)
			return
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d hot spots, step loop %d", engine, len(got), len(want))
	}
}

// TestProfileTimedMatchesStepLoop pins the profiling pass to its
// reference. On every workload input at scale 1, the hot-spot stream the
// timed block engine feeds the detector — with superblocks and with tier
// 0 only — equals the functional step loop's record for record, and the
// run's TimingStats equal the step loop's Timing.Observe baseline.
// ProfileTimed, the entry point every pipeline profiles through, must
// then produce the step loop's artifact and observer stream.
func TestProfileTimedMatchesStepLoop(t *testing.T) {
	cfg := ScaledConfig()
	mc := cpu.DefaultConfig()
	tier0 := mc
	tier0.DisableSuperblocks = true
	for _, bench := range workload.Ordered() {
		for _, in := range bench.Inputs {
			in.Scale = 1
			t.Run(bench.Name+"/"+in.Name, func(t *testing.T) {
				img, err := bench.Build(in).Linearize()
				if err != nil {
					t.Fatalf("linearize: %v", err)
				}
				want, wantBase, wantM, err := stepStream(mc, cfg, img, 0)
				if err != nil {
					t.Fatalf("step loop: %v", err)
				}
				if len(want) == 0 {
					t.Fatal("step loop detected no hot spots")
				}
				for _, e := range []struct {
					name string
					mc   cpu.Config
				}{{"superblocks", mc}, {"blocks", tier0}} {
					got, base, m, err := timedStream(e.mc, cfg, img, 0)
					if err != nil {
						t.Fatalf("%s: %v", e.name, err)
					}
					sameStream(t, e.name, want, got)
					if base != wantBase {
						t.Errorf("%s: TimingStats diverged:\n  step:  %+v\n  timed: %+v", e.name, wantBase, base)
					}
					if m.InstCount != wantM.InstCount {
						t.Errorf("%s: retired %d insts, step loop %d", e.name, m.InstCount, wantM.InstCount)
					}
				}

				recStep, recTimed := obs.NewRecorder(), obs.NewRecorder()
				timing := cpu.NewTiming(mc, img)
				db, st, err := profile(cfg, stepDriver(img, 0, timing.Observe), recStep)
				if err != nil {
					t.Fatalf("step-loop profile: %v", err)
				}
				paStep := newProfileArtifact(cfg, img, db, st)
				paTimed, base, err := ProfileTimed(cfg, mc, img, recTimed)
				if err != nil {
					t.Fatalf("ProfileTimed: %v", err)
				}
				if base != timing.Finish() {
					t.Errorf("ProfileTimed base diverged:\n  step:  %+v\n  timed: %+v", timing.Finish(), base)
				}
				if paStep.Stats != paTimed.Stats {
					t.Errorf("ProfileStats diverged: step %+v, timed %+v", paStep.Stats, paTimed.Stats)
				}
				hStep, err := paStep.Hash()
				if err != nil {
					t.Fatal(err)
				}
				hTimed, err := paTimed.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if hStep != hTimed {
					t.Errorf("artifact hash diverged: step %016x, timed %016x", hStep, hTimed)
				}
				if trStep, trTimed := normalizedTrace(t, recStep), normalizedTrace(t, recTimed); !bytes.Equal(trStep, trTimed) {
					t.Errorf("observer stream diverged:\n  step:  %s\n  timed: %s", trStep, trTimed)
				}
			})
		}
	}

	// A limited run on the block engine stops at some count L' at most one
	// dispatch past its limit L. Its hot-spot stream must be the step
	// loop's stream cut at exactly L', and a limit equal to the full run's
	// count must not fail.
	t.Run("limited", func(t *testing.T) {
		b, in := buildInput(t, "m88ksim", "A")
		img, err := b.Build(in).Linearize()
		if err != nil {
			t.Fatalf("linearize: %v", err)
		}
		full, fullBase, fullM, err := stepStream(mc, cfg, img, 0)
		if err != nil {
			t.Fatalf("step loop: %v", err)
		}
		for _, e := range []struct {
			name string
			mc   cpu.Config
		}{{"superblocks", mc}, {"blocks", tier0}} {
			got, base, _, err := timedStream(e.mc, cfg, img, fullM.InstCount)
			if err != nil {
				t.Fatalf("%s: a run of exactly %d insts failed: %v", e.name, fullM.InstCount, err)
			}
			sameStream(t, e.name, full, got)
			if base != fullBase {
				t.Errorf("%s: TimingStats diverged:\n  step:  %+v\n  timed: %+v", e.name, fullBase, base)
			}

			limit := fullM.InstCount / 2
			got, _, m, err := timedStream(e.mc, cfg, img, limit)
			var le *cpu.LimitError
			if !errors.As(err, &le) || le.Limit != limit || m.InstCount < limit {
				t.Fatalf("%s: limit %d: error %v after %d insts", e.name, limit, err, m.InstCount)
			}
			want, _, wantM, wantErr := stepStream(mc, cfg, img, m.InstCount)
			var wantLE *cpu.LimitError
			if !errors.As(wantErr, &wantLE) || wantLE.PC != le.PC || wantM.InstCount != m.InstCount {
				t.Fatalf("%s: cut at %d insts, pc %d; step loop cut there: %v", e.name, m.InstCount, le.PC, wantErr)
			}
			sameStream(t, e.name+"/limited", want, got)
		}
	})
}

// TestHotSpotsMatchesStepLoop: HotSpots, which runs on the timed block
// engine, reports the functional step loop's detections record for record
// on the first input of every benchmark at its own scale, the programs
// vpackd serves.
func TestHotSpotsMatchesStepLoop(t *testing.T) {
	cfg := ScaledConfig()
	for _, bench := range workload.Ordered() {
		img, err := bench.Build(bench.Inputs[0]).Linearize()
		if err != nil {
			t.Fatalf("%s: linearize: %v", bench.Name, err)
		}
		var want []hsd.HotSpot
		if _, _, err := detect(cfg, stepDriver(img, 0, nil), func(h hsd.HotSpot) { want = append(want, h) }); err != nil {
			t.Fatalf("%s: step loop: %v", bench.Name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: step loop detected no hot spots", bench.Name)
		}
		got, err := HotSpots(cfg, img)
		if err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		sameStream(t, bench.Name, want, got)
	}
}
