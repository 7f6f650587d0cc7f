// Package phasedb stores hot-spot records emitted by the Hot Spot Detector
// and performs the software filtering step of §3.1: redundant re-detections
// of the same program phase are merged, using the paper's two similarity
// criteria (the 30% branch-set difference rule and the biased-branch
// bias-flip rule). The database is the bridge between profiling and region
// identification: each unique phase becomes one region-formation input.
package phasedb

import (
	"fmt"
	"sort"

	"repro/internal/hsd"
)

// Config holds the filtering thresholds.
type Config struct {
	// DifferenceThreshold is the fraction of one hot spot's branches that
	// must be missing from the other before the two are declared different
	// (0.30 in the paper).
	DifferenceThreshold float64
	// BiasedLow and BiasedHigh delimit bias: a branch with taken fraction
	// <= BiasedLow is not-taken biased, >= BiasedHigh is taken biased,
	// anything between is unbiased.
	BiasedLow  float64
	BiasedHigh float64
	// MaxBiasFlips is how many common biased branches may flip direction
	// before two hot spots are declared different. The paper uses a single
	// flip as the separator, i.e. zero flips are tolerated.
	MaxBiasFlips int
}

// TooDifferent applies one side of the paper's 30% rule to a branch set
// of size branches, missing of which are absent from the other set: the
// two are different hot spots when missing >= DifferenceThreshold x size.
// The rule is two-sided, so callers test it from both sets.
func (c Config) TooDifferent(missing, size int) bool {
	return float64(missing) >= c.DifferenceThreshold*float64(size)
}

// WithDefaults returns c with its zero thresholds replaced by
// DefaultConfig's. MaxBiasFlips keeps its value: zero is the paper's.
func (c Config) WithDefaults() Config {
	def := DefaultConfig()
	if c.DifferenceThreshold == 0 {
		c.DifferenceThreshold = def.DifferenceThreshold
	}
	if c.BiasedLow == 0 {
		c.BiasedLow = def.BiasedLow
	}
	if c.BiasedHigh == 0 {
		c.BiasedHigh = def.BiasedHigh
	}
	return c
}

// DefaultConfig returns the paper's filtering parameters.
func DefaultConfig() Config {
	return Config{
		DifferenceThreshold: 0.30,
		BiasedLow:           0.30,
		BiasedHigh:          0.70,
		MaxBiasFlips:        0,
	}
}

// Bias classifies a branch's direction preference.
type Bias int8

// Bias values.
const (
	BiasNotTaken Bias = -1
	BiasNone     Bias = 0
	BiasTaken    Bias = 1
)

func (b Bias) String() string {
	switch b {
	case BiasNotTaken:
		return "F"
	case BiasTaken:
		return "T"
	default:
		return "U"
	}
}

// BiasOf classifies a taken fraction under the configured thresholds.
func (c Config) BiasOf(frac float64) Bias {
	switch {
	case frac >= c.BiasedHigh:
		return BiasTaken
	case frac <= c.BiasedLow:
		return BiasNotTaken
	default:
		return BiasNone
	}
}

// BranchStat accumulates one static branch's behavior within one phase.
type BranchStat struct {
	PC    int64
	Exec  uint64
	Taken uint64
	// Windows counts the detection windows that contributed, so consumers
	// can recover per-window (hardware-counter-scale) weights.
	Windows int
}

// WindowExec returns the average executed count per detection window.
func (b BranchStat) WindowExec() uint64 {
	if b.Windows == 0 {
		return b.Exec
	}
	return b.Exec / uint64(b.Windows)
}

// WindowTaken returns the average taken count per detection window.
func (b BranchStat) WindowTaken() uint64 {
	if b.Windows == 0 {
		return b.Taken
	}
	return b.Taken / uint64(b.Windows)
}

// TakenFraction returns taken/exec.
func (b BranchStat) TakenFraction() float64 {
	if b.Exec == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Exec)
}

// Phase is one unique program phase: the merged hot-spot records that the
// filter attributed to it.
type Phase struct {
	ID       int
	Branches map[int64]*BranchStat
	// Detections counts how many raw hot-spot records merged into this
	// phase (including the first).
	Detections int
	// FirstAtBranch/LastAtBranch give the detection-time span in retired
	// conditional branches; FirstAtInst/LastAtInst in retired instructions
	// when the driver supplies instruction stamps.
	FirstAtBranch, LastAtBranch uint64
	FirstAtInst, LastAtInst     uint64

	// repWeight is the total executed weight of the representative window
	// currently held in Branches.
	repWeight uint64
}

// SortedBranches returns the phase's branch stats ordered by PC.
func (p *Phase) SortedBranches() []BranchStat {
	out := make([]BranchStat, 0, len(p.Branches))
	for _, b := range p.Branches {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// TotalExec sums executed counts over the phase's branches.
func (p *Phase) TotalExec() uint64 {
	var n uint64
	for _, b := range p.Branches {
		n += b.Exec
	}
	return n
}

// DB is the phase database.
type DB struct {
	cfg    Config
	Phases []*Phase
	// Redundant counts hot-spot records merged into existing phases.
	Redundant int
	// Timeline records which phase was live when, as (instStamp, phaseID)
	// transitions ordered by time.
	Timeline []Transition
}

// Transition marks the detection of a phase at a point in time.
type Transition struct {
	AtBranch uint64
	AtInst   uint64
	PhaseID  int
}

// New returns an empty database; cfg fields at zero take defaults.
func New(cfg Config) *DB {
	return &DB{cfg: cfg.WithDefaults()}
}

// Config returns the database's effective configuration.
func (db *DB) Config() Config { return db.cfg }

// Record files one raw hot-spot detection, merging it into an existing
// phase when the similarity rules say it is redundant. It returns the
// phase it was attributed to.
func (db *DB) Record(hs hsd.HotSpot) *Phase {
	if ph := db.match(hs); ph != nil {
		db.Redundant++
		mergeInto(ph, hs)
		db.Timeline = append(db.Timeline, Transition{hs.DetectedAtBranch, hs.DetectedAtInst, ph.ID})
		return ph
	}
	ph := &Phase{
		ID:            len(db.Phases),
		Branches:      make(map[int64]*BranchStat, len(hs.Branches)),
		FirstAtBranch: hs.DetectedAtBranch,
		FirstAtInst:   hs.DetectedAtInst,
	}
	mergeInto(ph, hs)
	db.Phases = append(db.Phases, ph)
	db.Timeline = append(db.Timeline, Transition{hs.DetectedAtBranch, hs.DetectedAtInst, ph.ID})
	return ph
}

// mergeInto folds a redundant detection into its phase. The phase keeps a
// single *representative* detection window — the one with the largest
// total executed weight — rather than the union of all windows. The paper
// discards redundant detections outright; unioning windows would hide
// exactly the hardware-profile losses (BBB set contention, candidacy
// races) that temperature inference exists to tolerate, because the
// contended entries' victims vary between windows. Keeping the strongest
// window instead of the first avoids freezing membership on a ramp-up or
// phase-boundary snapshot.
func mergeInto(ph *Phase, hs hsd.HotSpot) {
	ph.Detections++
	ph.LastAtBranch = hs.DetectedAtBranch
	ph.LastAtInst = hs.DetectedAtInst
	var weight uint64
	for _, b := range hs.Branches {
		weight += uint64(b.Exec)
	}
	if weight <= ph.repWeight {
		return
	}
	ph.repWeight = weight
	ph.Branches = make(map[int64]*BranchStat, len(hs.Branches))
	for _, b := range hs.Branches {
		ph.Branches[b.PC] = &BranchStat{
			PC:      b.PC,
			Exec:    uint64(b.Exec),
			Taken:   uint64(b.Taken),
			Windows: 1,
		}
	}
}

// match returns the existing phase hs is redundant with, or nil. Per the
// paper, every previously recorded hot spot is eligible (full software
// filtering).
func (db *DB) match(hs hsd.HotSpot) *Phase {
	for _, ph := range db.Phases {
		if db.similar(ph, hs) {
			return ph
		}
	}
	return nil
}

// similar applies the two §3.1 criteria.
func (db *DB) similar(ph *Phase, hs hsd.HotSpot) bool {
	if len(hs.Branches) == 0 || len(ph.Branches) == 0 {
		return len(hs.Branches) == len(ph.Branches)
	}
	// Criterion 1: >= threshold of either side's branches missing from the
	// other makes them different hot spots.
	missingFromPh := 0
	for _, b := range hs.Branches {
		if _, ok := ph.Branches[b.PC]; !ok {
			missingFromPh++
		}
	}
	if db.cfg.TooDifferent(missingFromPh, len(hs.Branches)) {
		return false
	}
	hsSet := make(map[int64]hsd.BranchRecord, len(hs.Branches))
	for _, b := range hs.Branches {
		hsSet[b.PC] = b
	}
	missingFromHS := 0
	for pc := range ph.Branches {
		if _, ok := hsSet[pc]; !ok {
			missingFromHS++
		}
	}
	if db.cfg.TooDifferent(missingFromHS, len(ph.Branches)) {
		return false
	}
	// Criterion 2: a common biased branch whose bias flipped separates
	// phases (more than MaxBiasFlips of them, per the generalization).
	flips := 0
	for pc, s := range ph.Branches {
		b, ok := hsSet[pc]
		if !ok {
			continue
		}
		oldBias := db.cfg.BiasOf(s.TakenFraction())
		newBias := db.cfg.BiasOf(b.TakenFraction())
		if oldBias != BiasNone && newBias != BiasNone && oldBias != newBias {
			flips++
			if flips > db.cfg.MaxBiasFlips {
				return false
			}
		}
	}
	return true
}

// String summarizes the database.
func (db *DB) String() string {
	return fmt.Sprintf("phasedb: %d phases, %d redundant detections filtered", len(db.Phases), db.Redundant)
}
