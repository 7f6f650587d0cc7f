// Package hsd models the Hot Spot Detector of Merten et al. (ISCA'99), the
// transparent hardware profiler the paper uses for phase detection: a
// set-associative Branch Behavior Buffer (BBB) that tabulates retiring
// conditional branches, and a saturating Hot Spot Detection Counter (HDC)
// that fires when the branches tracked as candidates account for a
// sufficient share of the dynamic branch stream.
//
// The model reproduces the artifacts the Vacuum Packing algorithms exist to
// tolerate: entries lost to set contention, branches that begin profiling
// late, counter saturation that freezes a branch's taken fraction, and
// periodic refresh/clear sweeps.
package hsd

import "fmt"

// Config sizes the detector. DefaultConfig mirrors Table 2 of the paper.
type Config struct {
	Sets        int // number of BBB sets
	Ways        int // BBB associativity
	CounterBits uint
	// CandidateThreshold is the executed count at which a tracked branch
	// becomes a candidate branch.
	CandidateThreshold uint32
	// RefreshInterval is the branch count between refresh sweeps that
	// evict entries which have not reached candidate status.
	RefreshInterval uint64
	// ClearInterval is the branch count without a detection after which
	// the whole BBB and the HDC are reset.
	ClearInterval uint64
	HDCBits       uint
	// HDCDec is subtracted from the HDC when a candidate branch retires;
	// HDCInc is added when a non-candidate branch retires. Detection fires
	// when the HDC reaches zero, i.e. when candidate branches account for
	// more than HDCInc/(HDCInc+HDCDec) of the stream.
	HDCDec uint32
	HDCInc uint32
}

// DefaultConfig returns the paper's detector parameters (Table 2).
func DefaultConfig() Config {
	return Config{
		Sets:               512,
		Ways:               4,
		CounterBits:        9,
		CandidateThreshold: 16,
		RefreshInterval:    8192,
		ClearInterval:      65536,
		HDCBits:            13,
		HDCDec:             2,
		HDCInc:             1,
	}
}

// ScaledConfig returns a detector scaled to this reproduction's synthetic
// workloads. The paper profiles phases of 10^8-10^9 branches with a
// 2048-entry BBB against hot working sets of thousands of static branches;
// our workloads run phases of ~10^4-10^5 branches with working sets of
// ~10^2. ScaledConfig keeps the BBB-capacity : working-set ratio and the
// detection-window : phase-length ratio of the paper's setup, so the
// artifacts the Vacuum Packing algorithms tolerate — set contention,
// candidacy races, late-starting branches — actually occur. Counter widths
// and the candidate threshold are unchanged.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Sets = 64 // 256 entries vs the paper's 2048
	cfg.RefreshInterval = 4096
	cfg.ClearInterval = 32768
	cfg.HDCBits = 12 // detection after ~2k candidate-dominated branches
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Ways <= 0:
		return fmt.Errorf("hsd: sets/ways must be positive: %d/%d", c.Sets, c.Ways)
	case c.CounterBits == 0 || c.CounterBits > 31:
		return fmt.Errorf("hsd: counter bits %d out of range", c.CounterBits)
	case c.HDCBits == 0 || c.HDCBits > 31:
		return fmt.Errorf("hsd: HDC bits %d out of range", c.HDCBits)
	case c.HDCDec == 0 && c.HDCInc == 0:
		return fmt.Errorf("hsd: HDC increments are both zero")
	case c.RefreshInterval == 0 || c.ClearInterval == 0:
		return fmt.Errorf("hsd: refresh/clear intervals must be positive")
	}
	return nil
}

// BranchRecord is one BBB entry snapshot: the static branch PC with its
// executed and taken counts accumulated during the detection window.
type BranchRecord struct {
	PC    int64  `json:"pc"`
	Exec  uint32 `json:"exec"`
	Taken uint32 `json:"taken"`
}

// TakenFraction returns taken/exec.
func (r BranchRecord) TakenFraction() float64 {
	if r.Exec == 0 {
		return 0
	}
	return float64(r.Taken) / float64(r.Exec)
}

// HotSpot is a detected hot spot: the candidate branches in the BBB at
// detection time. Its JSON form is the v1 wire record clients stream to
// vpackd (POST /v1/profiles/{program}); the branch and instruction counts
// travel as strings so they survive decoders that read numbers as float64.
type HotSpot struct {
	// Seq numbers detections in order.
	Seq int `json:"seq"`
	// DetectedAtBranch is the retired conditional-branch count at detection.
	DetectedAtBranch uint64 `json:"at_branch,string"`
	// DetectedAtInst is filled by the caller if instruction counts are
	// tracked alongside; zero otherwise.
	DetectedAtInst uint64         `json:"at_inst,string"`
	Branches       []BranchRecord `json:"branches"`
}

type entry struct {
	valid     bool
	candidate bool
	saturated bool
	pc        int64
	exec      uint32
	taken     uint32
	lastUse   uint64
}

// Stats counts detector-internal events.
type Stats struct {
	BranchesSeen   uint64
	Detections     uint64
	Refreshes      uint64
	Clears         uint64
	ContentionDrop uint64 // retired branches untrackable: set full of candidates
	Saturations    uint64 // entries whose exec counter saturated
}

// Detector is the hardware model. Feed it the retired conditional-branch
// stream via Branch; it invokes OnDetect synchronously at each detection.
type Detector struct {
	cfg        Config
	counterMax uint32
	hdcMax     uint32

	table []entry // Sets*Ways
	hdc   uint32

	branchCount  uint64
	instCount    uint64
	sinceRefresh uint64
	sinceClear   uint64
	seq          int

	// OnDetect is called at every hot-spot detection, before the BBB is
	// cleared for the next window. The slice is freshly allocated per call.
	OnDetect func(HotSpot)

	Stats Stats
}

// New builds a detector; it panics on invalid configuration (a programming
// error, not an input error).
func New(cfg Config, onDetect func(HotSpot)) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Detector{
		cfg:        cfg,
		counterMax: 1<<cfg.CounterBits - 1,
		hdcMax:     1<<cfg.HDCBits - 1,
		table:      make([]entry, cfg.Sets*cfg.Ways),
		OnDetect:   onDetect,
	}
	d.hdc = d.hdcMax
	return d
}

// SetInstCount lets the driver report the current retired-instruction count
// so detections can be timestamped in instructions as well as branches.
func (d *Detector) SetInstCount(n uint64) { d.instCount = n }

// Branch feeds one retired conditional branch into the detector.
func (d *Detector) Branch(pc int64, taken bool) {
	d.branchCount++
	d.Stats.BranchesSeen++
	d.sinceRefresh++
	d.sinceClear++

	set := int(uint64(pc) % uint64(d.cfg.Sets))
	base := set * d.cfg.Ways
	ways := d.table[base : base+d.cfg.Ways]

	var e, invalid, lruNonCand *entry
	for i := range ways {
		w := &ways[i]
		if w.valid && w.pc == pc {
			e = w
			break
		}
		if !w.valid {
			if invalid == nil {
				invalid = w
			}
			continue
		}
		if !w.candidate && (lruNonCand == nil || w.lastUse < lruNonCand.lastUse) {
			lruNonCand = w
		}
	}
	if e == nil {
		victim := invalid
		if victim == nil {
			victim = lruNonCand
		}
		if victim == nil {
			// Every way holds a candidate: the new branch cannot be
			// tracked. This is the contention artifact §3.1 describes.
			d.Stats.ContentionDrop++
			d.updateHDC(false)
			d.timers()
			return
		}
		*victim = entry{valid: true, pc: pc}
		e = victim
	}
	e.lastUse = d.branchCount
	if !e.saturated {
		e.exec++
		if taken {
			e.taken++
		}
		if e.exec >= d.counterMax {
			// Counters freeze at saturation so the taken fraction is
			// preserved (§3.1).
			e.saturated = true
			d.Stats.Saturations++
		}
	}
	if !e.candidate && e.exec >= d.cfg.CandidateThreshold {
		e.candidate = true
	}
	d.updateHDC(e.candidate)
	d.timers()
}

func (d *Detector) updateHDC(candidate bool) {
	if candidate {
		if d.hdc <= d.cfg.HDCDec {
			d.hdc = 0
			d.detect()
			return
		}
		d.hdc -= d.cfg.HDCDec
		return
	}
	if d.hdc+d.cfg.HDCInc >= d.hdcMax {
		d.hdc = d.hdcMax
	} else {
		d.hdc += d.cfg.HDCInc
	}
}

func (d *Detector) timers() {
	if d.sinceRefresh >= d.cfg.RefreshInterval {
		d.refresh()
	}
	if d.sinceClear >= d.cfg.ClearInterval {
		d.clear()
		d.Stats.Clears++
	}
}

// refresh evicts entries that have not reached candidate status, freeing
// table space for the branches of the current phase.
func (d *Detector) refresh() {
	d.Stats.Refreshes++
	d.sinceRefresh = 0
	for i := range d.table {
		if d.table[i].valid && !d.table[i].candidate {
			d.table[i] = entry{}
		}
	}
}

// clear resets the whole detector state (but not statistics or sequence
// numbers).
func (d *Detector) clear() {
	for i := range d.table {
		d.table[i] = entry{}
	}
	d.hdc = d.hdcMax
	d.sinceRefresh = 0
	d.sinceClear = 0
}

// detect snapshots the candidate branches, reports the hot spot, and
// resets the detector for the next window.
func (d *Detector) detect() {
	d.Stats.Detections++
	hs := HotSpot{
		Seq:              d.seq,
		DetectedAtBranch: d.branchCount,
		DetectedAtInst:   d.instCount,
	}
	d.seq++
	for i := range d.table {
		e := &d.table[i]
		if e.valid && e.candidate {
			hs.Branches = append(hs.Branches, BranchRecord{PC: e.pc, Exec: e.exec, Taken: e.taken})
		}
	}
	if d.OnDetect != nil {
		d.OnDetect(hs)
	}
	d.clear()
}

// HDC exposes the current counter value (for tests and introspection).
func (d *Detector) HDC() uint32 { return d.hdc }
