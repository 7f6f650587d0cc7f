// Package drift is the phase-drift observability layer: it watches the
// stream of hardware hot-spot records a program emits *after* a package
// set has been published and quantifies how far the live phase population
// has moved from the profile snapshot that package set was built from.
//
// Incoming records are aggregated into fixed-size analysis windows (every
// Window records close one window) held in a bounded ring, so a
// long-running daemon keeps a recent timeline at O(Ring x branches)
// memory no matter how long the stream runs. Each window close scores the
// most recent windows against the baseline along the same axes the
// paper's §3.1 software filter separates phases by:
//
//   - weighted hot-set divergence — total-variation distance between the
//     recent windows' and the baseline's normalized branch-weight
//     distributions (0 = identical hot sets, 1 = disjoint);
//   - bias-flip count — branches common to both whose taken/not-taken
//     bias (under the phasedb thresholds) flipped direction;
//   - 30%-filter-rule crossings — the fraction of recent windows whose
//     branch set fails the paper's two-sided difference rule against
//     every baseline phase, i.e. windows that would have founded a new
//     phase in the database.
//
// The axes combine into a composite score by noisy-or,
//
//	score = 1 - (1-divergence) x (1-crossings) x (1-flipShare),
//
// so any single axis drifting pushes the score up and a stream identical
// to the baseline scores ~0. The score is exactly the trigger signal an
// incremental repacker needs: a cheap, continuously maintained answer to
// "is the profile behind the published packages still the profile the
// program is running?".
package drift

import (
	"sort"
	"sync"

	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
)

// Config sizes the drift tracker.
type Config struct {
	// Window is how many hot-spot records close one analysis window.
	// Zero or negative disables the tracker entirely (Observe no-ops).
	Window int
	// Ring is how many closed windows the timeline retains. Zero or
	// negative disables the tracker.
	Ring int
	// Recent is how many of the newest closed windows are merged when
	// scoring against the baseline (0 = DefaultRecent).
	Recent int
	// Phase supplies the bias and set-difference thresholds; zero fields
	// take the phasedb defaults (the paper's 30% rule and 30/70 bias
	// band).
	Phase phasedb.Config
}

// Default sizing: 16 records per window keeps a window comfortably inside
// one detector refresh epoch at the repo's scaled workloads, 64 windows
// of ring retain ~1000 records of history, and scoring the last 4 windows
// smooths single-window detector noise without hiding a real shift.
const (
	DefaultWindow = 16
	DefaultRing   = 64
	DefaultRecent = 4
)

// DefaultConfig returns the default tracker sizing.
func DefaultConfig() Config {
	return Config{Window: DefaultWindow, Ring: DefaultRing, Recent: DefaultRecent}
}

// Enabled reports whether the configuration tracks anything.
func (c Config) Enabled() bool { return c.Window > 0 && c.Ring > 0 }

func (c Config) recent() int {
	if c.Recent > 0 {
		return c.Recent
	}
	return DefaultRecent
}

// Score is one drift measurement: the three axes, their composite, and
// the context they were computed in.
type Score struct {
	// HotSetDivergence is the weighted hot-set divergence in [0,1].
	HotSetDivergence float64 `json:"hot_set_divergence"`
	// BiasFlips counts common branches whose bias flipped direction.
	BiasFlips int `json:"bias_flips"`
	// FilterCrossings is the fraction of scored windows crossing the 30%
	// filter rule against every baseline phase.
	FilterCrossings float64 `json:"filter_crossings"`
	// Composite is the noisy-or combination of the axes, in [0,1].
	Composite float64 `json:"composite"`
	// Peak is the maximum composite ever observed by this tracker; it
	// survives baseline swaps so transient shifts stay visible.
	Peak float64 `json:"peak"`
	// WindowsScored is how many closed windows the measurement merged.
	WindowsScored int `json:"windows_scored"`
	// BaselineVersion is the published version the baseline snapshot came
	// from (0 = no baseline: every axis reads 0).
	BaselineVersion int `json:"baseline_version"`
}

// WindowSummary is one closed analysis window as the timeline reports it.
type WindowSummary struct {
	// Seq numbers closed windows from 1.
	Seq int `json:"seq"`
	// Records and Branches size the window's aggregated content.
	Records  int `json:"records"`
	Branches int `json:"branches"`
	// Phases lists the distinct phase IDs the daemon's database attributed
	// the window's records to, ascending ( -1 entries mean the caller
	// supplied no attribution).
	Phases []int `json:"phases,omitempty"`
	// FirstInst/LastInst span the window in retired instructions; their
	// difference and Records give the window's detection rate.
	FirstInst uint64 `json:"first_inst,string"`
	LastInst  uint64 `json:"last_inst,string"`
	// Divergence, BiasFlips and Crossed score this window alone against
	// the baseline live at close time.
	Divergence float64 `json:"divergence"`
	BiasFlips  int     `json:"bias_flips"`
	Crossed    bool    `json:"crossed"`
	// Score is the composite over the recent windows at close time.
	Score float64 `json:"score"`
	// BaselineVersion is the baseline the window was scored against.
	BaselineVersion int `json:"baseline_version"`
}

// Status is a tracker snapshot, shaped for the daemon's /v1/drift
// endpoint.
type Status struct {
	Program         string `json:"program"`
	Enabled         bool   `json:"enabled"`
	WindowRecords   int    `json:"window_records"`
	RingWindows     int    `json:"ring_windows"`
	Samples         int64  `json:"samples"`
	Windows         int64  `json:"windows"`
	BaselineVersion int    `json:"baseline_version"`
	Score           Score  `json:"score"`
}

// branchAgg accumulates one branch inside a window.
type branchAgg struct {
	exec, taken uint64
}

// window is one (open or closed) analysis window.
type window struct {
	summary  WindowSummary
	branches map[int64]*branchAgg
	phases   map[int]bool
}

// baseline is the digested profile snapshot drift is measured against.
type baseline struct {
	version int
	// weight is the normalized executed weight per branch PC, each
	// phase's representative window scaled by its detection count.
	weight map[int64]float64
	// bias is each PC's direction preference in the baseline.
	bias map[int64]phasedb.Bias
	// sets holds each baseline phase's branch-PC set for the 30%-rule
	// crossing check.
	sets []map[int64]bool
}

// Tracker maintains one program's drift timeline. All methods are safe
// for concurrent use; Observe is O(branches in the record) and a window
// close adds O(Recent x branches + windows x phases) for the score, so
// the ingest path never blocks on anything slower than a mutex.
type Tracker struct {
	cfg     Config
	program string
	o       obs.Observer

	mu      sync.Mutex
	cur     *window
	ring    []*window // closed windows, oldest first, len <= cfg.Ring
	seq     int
	samples int64
	windows int64
	base    *baseline
	last    Score
	peak    float64
}

// NewTracker builds a tracker for program, reporting counters, gauges
// and histograms to o (obs.Nop{} for none). Per-program metric series
// carry a ".program" suffix next to the canonical names in internal/obs.
// The tracker emits no obs events: the daemon records window closes and
// baselines in its /v1/events ring, and the metrics carry the rest.
func NewTracker(cfg Config, program string, o obs.Observer) *Tracker {
	if cfg.Recent <= 0 {
		cfg.Recent = DefaultRecent
	}
	cfg.Phase = cfg.Phase.WithDefaults()
	if o == nil {
		o = obs.Nop{}
	}
	return &Tracker{cfg: cfg, program: program, o: o}
}

// Program returns the tracked program's name.
func (t *Tracker) Program() string { return t.program }

// Enabled reports whether the tracker records anything.
func (t *Tracker) Enabled() bool { return t.cfg.Enabled() }

// Observe folds one hot-spot record into the current window. phaseID is
// the phase the consumer's database attributed the record to (-1 when
// unattributed). It reports whether the record closed a window — the
// moment gauges and the composite score were refreshed.
func (t *Tracker) Observe(hs hsd.HotSpot, phaseID int) bool {
	if !t.cfg.Enabled() {
		return false
	}
	t.mu.Lock()
	t.samples++
	if t.cur == nil {
		t.cur = &window{
			branches: make(map[int64]*branchAgg, len(hs.Branches)),
			phases:   make(map[int]bool, 2),
		}
		t.cur.summary.FirstInst = hs.DetectedAtInst
	}
	w := t.cur
	w.summary.Records++
	w.summary.LastInst = hs.DetectedAtInst
	w.phases[phaseID] = true
	for _, b := range hs.Branches {
		agg := w.branches[b.PC]
		if agg == nil {
			agg = &branchAgg{}
			w.branches[b.PC] = agg
		}
		agg.exec += uint64(b.Exec)
		agg.taken += uint64(b.Taken)
	}
	closed := w.summary.Records >= t.cfg.Window
	if closed {
		t.closeWindowLocked()
	}
	t.mu.Unlock()

	t.o.Count(obs.DriftSamples.Name, 1)
	t.o.Count(obs.DriftSamples.For(t.program), 1)
	return closed
}

// closeWindowLocked seals the current window into the ring, scores the
// recent windows against the baseline and publishes the measurement.
// Caller holds t.mu.
func (t *Tracker) closeWindowLocked() {
	w := t.cur
	t.cur = nil
	t.seq++
	t.windows++
	w.summary.Seq = t.seq
	w.summary.Branches = len(w.branches)
	for id := range w.phases {
		w.summary.Phases = append(w.summary.Phases, id)
	}
	sort.Ints(w.summary.Phases)

	if len(t.ring) >= t.cfg.Ring {
		// Bounded ring: evict the oldest closed window.
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = w
	} else {
		t.ring = append(t.ring, w)
	}

	// Per-window axes against the live baseline, for the timeline view.
	if t.base != nil {
		div, flips, _ := t.scoreWindows([]*window{w})
		w.summary.Divergence = div
		w.summary.BiasFlips = flips
		w.summary.Crossed = t.windowCrossed(w)
		w.summary.BaselineVersion = t.base.version
	}

	// Composite over the recent windows.
	t.last = t.computeScoreLocked()
	if t.last.Composite > t.peak {
		t.peak = t.last.Composite
	}
	t.last.Peak = t.peak
	w.summary.Score = t.last.Composite

	t.publishLocked()
}

// publishLocked exports a freshly closed window's measurement. Caller
// holds t.mu; the observer has its own synchronization and never calls
// back into the tracker.
func (t *Tracker) publishLocked() {
	t.o.Count(obs.DriftWindows.Name, 1)
	t.o.Count(obs.DriftWindows.For(t.program), 1)
	t.o.Gauge(obs.DriftScore.For(t.program), t.last.Composite)
	t.o.Gauge(obs.DriftPeak.For(t.program), t.peak)
	t.o.Gauge(obs.DriftHotSetDivergence.For(t.program), t.last.HotSetDivergence)
	t.o.Gauge(obs.DriftBiasFlips.For(t.program), float64(t.last.BiasFlips))
	t.o.Gauge(obs.DriftFilterCrossings.For(t.program), t.last.FilterCrossings)
	t.o.Observe(obs.DriftScorePct.Name, t.last.Composite*100)
	t.o.Observe(obs.DriftScorePct.For(t.program), t.last.Composite*100)
}

// SetBaseline installs the phase snapshot backing a freshly published
// package version as the drift baseline and rescoring reference. The
// peak composite survives the swap.
func (t *Tracker) SetBaseline(snap *phasedb.Snapshot, version int) {
	if !t.cfg.Enabled() || snap == nil {
		return
	}
	b := digestSnapshot(t.cfg.Phase, snap, version)
	t.mu.Lock()
	t.base = b
	t.last = t.computeScoreLocked()
	t.last.Peak = t.peak
	t.mu.Unlock()

	t.o.Gauge(obs.DriftBaselineVersion.For(t.program), float64(version))
}

// Score returns the latest measurement. Only a window close and a
// baseline swap change what it scores, and both refresh it, so it is
// served as measured.
func (t *Tracker) Score() Score {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.last
	if s.Composite > t.peak {
		t.peak = s.Composite
	}
	s.Peak = t.peak
	return s
}

// Status snapshots the tracker for serving.
func (t *Tracker) Status() Status {
	s := Status{
		Program:       t.program,
		Enabled:       t.cfg.Enabled(),
		WindowRecords: t.cfg.Window,
		RingWindows:   t.cfg.Ring,
	}
	s.Score = t.Score()
	t.mu.Lock()
	s.Samples = t.samples
	s.Windows = t.windows
	if t.base != nil {
		s.BaselineVersion = t.base.version
	}
	t.mu.Unlock()
	s.Score.BaselineVersion = s.BaselineVersion
	return s
}

// Timeline returns the retained windows' summaries, oldest first.
func (t *Tracker) Timeline() []WindowSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WindowSummary, 0, len(t.ring))
	for _, w := range t.ring {
		out = append(out, w.summary)
	}
	return out
}

// computeScoreLocked scores the newest Recent closed windows against the
// baseline. Caller holds t.mu.
func (t *Tracker) computeScoreLocked() Score {
	s := Score{}
	if t.base != nil {
		s.BaselineVersion = t.base.version
	}
	n := t.cfg.recent()
	if n > len(t.ring) {
		n = len(t.ring)
	}
	if n == 0 || t.base == nil {
		return s
	}
	recent := t.ring[len(t.ring)-n:]
	s.WindowsScored = n

	div, flips, flipShare := t.scoreWindows(recent)
	s.HotSetDivergence = div
	s.BiasFlips = flips

	crossed := 0
	for _, w := range recent {
		if t.windowCrossed(w) {
			crossed++
		}
	}
	s.FilterCrossings = float64(crossed) / float64(n)

	// Noisy-or: identical streams leave every factor at 1 (score 0); any
	// axis saturating alone drives the composite toward 1.
	s.Composite = 1 - (1-s.HotSetDivergence)*(1-s.FilterCrossings)*(1-flipShare)
	if s.Composite < 0 {
		s.Composite = 0
	}
	if s.Composite > 1 {
		s.Composite = 1
	}
	return s
}

// scoreWindows merges the given windows and computes the weighted hot-set
// divergence and bias-flip axes against the baseline. flipShare is flips
// normalized by the number of branches biased on both sides. Caller holds
// t.mu; t.base is non-nil.
func (t *Tracker) scoreWindows(ws []*window) (divergence float64, flips int, flipShare float64) {
	merged := make(map[int64]*branchAgg, 64)
	var total uint64
	for _, w := range ws {
		for pc, agg := range w.branches {
			m := merged[pc]
			if m == nil {
				m = &branchAgg{}
				merged[pc] = m
			}
			m.exec += agg.exec
			m.taken += agg.taken
			total += agg.exec
		}
	}
	if total == 0 {
		return 0, 0, 0
	}

	// Total-variation distance between the normalized weight vectors:
	// 1/2 * sum |wCur - wBase| over the union of PCs.
	var tv float64
	for pc, m := range merged {
		cur := float64(m.exec) / float64(total)
		tv += abs(cur - t.base.weight[pc])
	}
	for pc, bw := range t.base.weight {
		if _, ok := merged[pc]; !ok {
			tv += bw
		}
	}
	divergence = tv / 2
	if divergence > 1 {
		divergence = 1
	}

	// Bias flips over the common, definitely-biased branches.
	common := 0
	for pc, m := range merged {
		bb, ok := t.base.bias[pc]
		if !ok || bb == phasedb.BiasNone || m.exec == 0 {
			continue
		}
		cb := t.cfg.Phase.BiasOf(float64(m.taken) / float64(m.exec))
		if cb == phasedb.BiasNone {
			continue
		}
		common++
		if cb != bb {
			flips++
		}
	}
	if common > 0 {
		flipShare = float64(flips) / float64(common)
	}
	return divergence, flips, flipShare
}

// windowCrossed applies the paper's two-sided 30% difference rule between
// the window's branch set and every baseline phase set: the window
// crosses when it differs from all of them, i.e. the software filter
// would have founded a new phase for it. Caller holds t.mu; t.base is
// non-nil.
func (t *Tracker) windowCrossed(w *window) bool {
	if len(w.branches) == 0 {
		return false
	}
	for _, set := range t.base.sets {
		if len(set) == 0 {
			continue
		}
		missingFromSet := 0
		for pc := range w.branches {
			if !set[pc] {
				missingFromSet++
			}
		}
		if t.cfg.Phase.TooDifferent(missingFromSet, len(w.branches)) {
			continue
		}
		missingFromWin := 0
		for pc := range set {
			if _, ok := w.branches[pc]; !ok {
				missingFromWin++
			}
		}
		if t.cfg.Phase.TooDifferent(missingFromWin, len(set)) {
			continue
		}
		return false // similar to this phase: no crossing
	}
	return true
}

// digestSnapshot lowers a phase-database snapshot into the baseline form:
// normalized per-PC weights (each phase's representative window scaled by
// its detection count), per-PC bias from the heaviest occurrence, and the
// per-phase PC sets.
func digestSnapshot(cfg phasedb.Config, snap *phasedb.Snapshot, version int) *baseline {
	b := &baseline{
		version: version,
		weight:  make(map[int64]float64, 64),
		bias:    make(map[int64]phasedb.Bias, 64),
		sets:    make([]map[int64]bool, 0, len(snap.Phases)),
	}
	heaviest := make(map[int64]uint64, 64)
	var total float64
	for _, ph := range snap.Phases {
		det := uint64(ph.Detections)
		if det == 0 {
			det = 1
		}
		set := make(map[int64]bool, len(ph.Branches))
		for _, br := range ph.Branches {
			set[br.PC] = true
			w := br.Exec * det
			b.weight[br.PC] += float64(w)
			total += float64(w)
			if w >= heaviest[br.PC] {
				heaviest[br.PC] = w
				b.bias[br.PC] = cfg.BiasOf(br.TakenFraction())
			}
		}
		b.sets = append(b.sets, set)
	}
	if total > 0 {
		for pc := range b.weight {
			b.weight[pc] /= total
		}
	}
	return b
}

// ShiftHotSpots is the synthetic phase shift behind vpbench -phaseshift,
// vpdump -driftshift and the daemon's tests: the first ⌊2n/5⌋ of each
// record's n branches drop out of the hot set (past the 30% rule) and
// every survivor's taken count flips. PCs stay real, so a phase database
// still accepts the records. spots is not modified.
func ShiftHotSpots(spots []hsd.HotSpot) []hsd.HotSpot {
	out := make([]hsd.HotSpot, len(spots))
	for i, hs := range spots {
		drop := 2 * len(hs.Branches) / 5
		brs := make([]hsd.BranchRecord, 0, len(hs.Branches)-drop)
		for _, b := range hs.Branches[drop:] {
			b.Taken = b.Exec - b.Taken
			brs = append(brs, b)
		}
		out[i] = hs
		out[i].Branches = brs
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
