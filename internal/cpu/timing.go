package cpu

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Config holds the machine-model parameters. DefaultConfig mirrors Table 2
// of the paper.
type Config struct {
	IssueWidth  int
	IntALUs     int
	FPUnits     int
	MemUnits    int
	BranchUnits int

	L1DSizeBytes int
	L1ISizeBytes int
	L2SizeBytes  int
	CacheWays    int

	L2Latency  int // extra cycles on an L1 miss that hits L2
	MemLatency int // extra cycles on an L2 miss

	BranchResolution int // pipeline depth from fetch to branch resolve
	GshareBits       uint
	BTBEntries       int
	RASEntries       int

	// FetchLineSlots is how many instruction slots share an I-cache line
	// (64-byte lines of 8-byte slots).
	FetchLineSlots int

	// DisableSuperblocks keeps the block-structured path on tier 0
	// (one basic block per dispatch) instead of promoting hot blocks
	// into specialized superblock traces (see superblock.go). Both tiers
	// are bit-identical to the step loop (Machine.Run + Timing.Observe).
	DisableSuperblocks bool

	// SuperblockThreshold is the number of tier-0 dispatches after which
	// a block is promoted into a superblock trace; 0 means
	// DefaultSuperblockThreshold.
	SuperblockThreshold int
}

// DefaultConfig returns the paper's Table 2 machine model.
func DefaultConfig() Config {
	return Config{
		IssueWidth:  8,
		IntALUs:     5,
		FPUnits:     3,
		MemUnits:    3,
		BranchUnits: 3,

		L1DSizeBytes: 64 << 10,
		L1ISizeBytes: 512 << 10,
		L2SizeBytes:  64 << 10,
		CacheWays:    4,

		L2Latency:  10,
		MemLatency: 80,

		BranchResolution: 7,
		GshareBits:       10,
		BTBEntries:       1024,
		RASEntries:       32,

		FetchLineSlots: 8,
	}
}

// TimingStats aggregates one timed run.
type TimingStats struct {
	Cycles       uint64
	Insts        uint64
	PackageInsts uint64 // instructions retired from package code

	CondBranches   uint64
	CondMispredict uint64
	BTBMisses      uint64
	RASMisses      uint64

	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64

	FetchBreaks uint64 // taken transfers that ended a fetch packet
	RAWStalls   uint64 // cycles lost waiting on operands (approximate)
}

// IPC returns retired instructions per cycle.
func (s TimingStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// PackageCoverage returns the fraction of dynamic instructions retired
// from package code.
func (s TimingStats) PackageCoverage() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.PackageInsts) / float64(s.Insts)
}

// Timing is the cycle-level model. It consumes the functional machine's
// retirement stream in program order and accounts:
//
//   - in-order issue of at most IssueWidth instructions per cycle, limited
//     by per-class functional units,
//   - register scoreboarding (an instruction cannot issue before its
//     operands' producing latencies have elapsed),
//   - fetch-packet breaks at taken control transfers, I-cache misses at
//     line boundaries, and
//   - branch resolution: a mispredicted conditional branch, a BTB-missing
//     taken transfer or a RAS-missing return redirects fetch
//     BranchResolution cycles after the transfer issued.
//
// The model is a faithful accounting abstraction of the paper's ten-stage
// EPIC pipeline rather than a structural register-transfer simulation; it
// rewards exactly the behaviors the paper's optimizations target: packed
// issue slots, fall-through layout and phase-local instruction footprints.
type Timing struct {
	cfg  Config
	pred *Predictor
	l1i  *Cache
	l1d  *Cache
	l2   *Cache

	cycle uint64

	// Packed per-cycle issue state: one byte per FU class (bytes 0..4,
	// indexed by isa.FUClass), byte 7 the issue-width budget; bytes 5-6
	// are unused and never limit. Each byte holds 0x80|remaining, so
	// issuing one instruction is a single uint64 subtraction and the
	// cycle is full for that class exactly when a high bit clears.
	// freeInit is the per-cycle refill value derived from the config
	// (per-class capacities clamped to 126, far above any real model).
	free     uint64
	freeInit uint64

	// regReady is sized to a power of two so hot loops can index it with
	// a mask instead of a bounds check; entries past isa.NumRegs stay 0.
	regReady   [64]uint64
	fetchReady uint64 // earliest cycle the next instruction can issue
	lastLine   int64

	inPkg []bool

	// onBranch, when non-nil, sees every retired conditional branch (see
	// BranchHook); RunTimedHooked sets it.
	onBranch BranchHook

	Stats TimingStats
}

// BranchHook observes one retired conditional branch of a timed run: its
// PC, its direction and the retired-instruction count including the
// branch itself — the stream a hardware branch monitor such as the Hot
// Spot Detector sees. Every engine calls it in retirement order with the
// same arguments, so the stream does not depend on the tier that ran.
type BranchHook func(pc int64, taken bool, insts uint64)

// NewTiming builds a timing model for an image. Instructions belonging to
// package functions are identified up front for coverage accounting.
func NewTiming(cfg Config, img *prog.Image) *Timing {
	t := &Timing{
		cfg:      cfg,
		pred:     NewPredictor(cfg.GshareBits, cfg.BTBEntries, cfg.RASEntries),
		l1i:      NewCache("L1I", cfg.L1ISizeBytes, cfg.CacheWays),
		l1d:      NewCache("L1D", cfg.L1DSizeBytes, cfg.CacheWays),
		l2:       NewCache("L2", cfg.L2SizeBytes, cfg.CacheWays),
		lastLine: -1,
		inPkg:    make([]bool, len(img.Code)),
	}
	t.freeInit = packIssueInit(cfg)
	t.free = t.freeInit
	for addr, b := range img.AddrBlock {
		t.inPkg[addr] = inPackage(b)
	}
	return t
}

// inPackage reports whether a code slot's owning block belongs to a
// package function: the mark behind PackageInsts and coverage.
func inPackage(b *prog.Block) bool { return b != nil && b.Fn.IsPackage }

// SameTimedImage reports whether a and b agree in everything a timed run
// reads: the entry point, the code, the initial data segment and the
// per-slot package mark. Under one Config, two such images yield
// identical TimingStats, block-cache statistics and data hashes, so one
// run can stand for both. The comparison is exact; core.ImageHash is not
// a substitute, because it omits the package mark.
func SameTimedImage(a, b *prog.Image) bool {
	if a.Entry != b.Entry || !slices.Equal(a.Code, b.Code) ||
		!slices.Equal(a.Prog.Data, b.Prog.Data) || len(a.AddrBlock) != len(b.AddrBlock) {
		return false
	}
	for i, blk := range a.AddrBlock {
		if inPackage(blk) != inPackage(b.AddrBlock[i]) {
			return false
		}
	}
	return true
}

// issueWidthShift is the bit position of the issue-width byte in the
// packed issue word.
const issueWidthShift = 56

// packIssueInit builds the per-cycle refill value for the packed issue
// state: 0x80|capacity in each FU byte and the width byte, 0x80|0x7e in
// the FUNone and unused bytes so they never limit. Capacities clamp to
// [0, 126]; a zero capacity stalls the class forever, exactly like the
// old fuLimit==0 behavior.
func packIssueInit(cfg Config) uint64 {
	pack := func(v int) uint64 {
		if v < 0 {
			v = 0
		}
		if v > 0x7e {
			v = 0x7e
		}
		return uint64(v)
	}
	return 0x8080808080808080 |
		0x7e | // FUNone: consumes an issue slot but no unit
		pack(cfg.IntALUs)<<(8*uint(isa.FUIALU)) |
		pack(cfg.FPUnits)<<(8*uint(isa.FUFP)) |
		pack(cfg.MemUnits)<<(8*uint(isa.FUMem)) |
		pack(cfg.BranchUnits)<<(8*uint(isa.FUBranch)) |
		0x7e<<40 | 0x7e<<48 | // unused bytes
		pack(cfg.IssueWidth)<<issueWidthShift
}

// issueNeed and issueHigh are the subtract mask and high-bit mask for
// issuing one instruction of FU class fu: one count from the class byte
// and one from the width byte.
func issueNeed(fu isa.FUClass) uint64 {
	return 1<<(8*uint(fu)) | 1<<issueWidthShift
}

func issueHigh(fu isa.FUClass) uint64 {
	return 0x80<<(8*uint(fu)) | 0x80<<issueWidthShift
}

// nextCycle advances to a fresh issue cycle.
func (t *Timing) nextCycle() {
	t.cycle++
	t.free = t.freeInit
}

// advanceTo jumps the issue clock to cycle c (> current).
func (t *Timing) advanceTo(c uint64) {
	t.cycle = c
	t.free = t.freeInit
}

// lineFetch charges the I-cache hierarchy for fetch crossing onto the
// line holding pc and delays fetchReady on a miss. The caller has decided
// the crossing happened (statically via slotNewLine / superblock stitch
// marks, or by comparing against lastLine at a block entry).
func (t *Timing) lineFetch(pc int64) {
	t.fetchReady = t.lineFetchAt(pc, t.cycle, t.fetchReady)
}

// lineFetchAt is lineFetch for callers that keep cycle and fetchReady in
// locals (the superblock executor); it returns the updated fetchReady.
func (t *Timing) lineFetchAt(pc int64, cycle, fetchReady uint64) uint64 {
	t.lastLine = pc >> 3
	if !t.l1i.Access(pc * 8) {
		extra := t.cfg.L2Latency
		if !t.l2.Access(pc * 8) {
			extra += t.cfg.MemLatency
		}
		if c := cycle + uint64(extra); fetchReady < c {
			fetchReady = c
		}
	}
	return fetchReady
}

// dLatency models a data access through the cache hierarchy and returns
// the total load-use latency.
func (t *Timing) dLatency(addr int64) int {
	lat := isa.LD.Latency()
	if t.l1d.Access(addr) {
		return lat
	}
	lat += t.cfg.L2Latency
	if t.l2.Access(addr) {
		return lat
	}
	return lat + t.cfg.MemLatency
}

// iFetch charges I-cache time when the fetch stream crosses into a new
// line and returns extra cycles to delay fetch.
func (t *Timing) iFetch(pc int64) int {
	line := (pc * 8) >> 6
	if line == t.lastLine {
		return 0
	}
	t.lastLine = line
	if t.l1i.Access(pc * 8) {
		return 0
	}
	extra := t.cfg.L2Latency
	if !t.l2.Access(pc * 8) {
		extra += t.cfg.MemLatency
	}
	return extra
}

// Observe accounts one retired instruction. Call it in retirement order.
// Per-opcode properties come from the flat isa.Meta table — one load per
// instruction instead of a method call per property. Driven by Machine.Run
// it is the step loop: the reference the block engine's tests compare
// against and what ProfileStage's obsFn callers use. RunTimed* never call
// it.
func (t *Timing) Observe(info *StepInfo) {
	in := info.Inst
	op := in.Op
	meta := &isa.Meta[op]

	// Fetch: line-crossing I-cache charge.
	if extra := t.iFetch(info.PC); extra > 0 {
		c := t.cycle + uint64(extra)
		if t.fetchReady < c {
			t.fetchReady = c
		}
	}

	// Earliest issue cycle: fetch availability and operand readiness.
	earliest := t.cycle
	if t.fetchReady > earliest {
		earliest = t.fetchReady
	}
	var opndReady uint64
	if meta.HasRs1 && in.Rs1 != isa.R0 && t.regReady[in.Rs1&63] > opndReady {
		opndReady = t.regReady[in.Rs1&63]
	}
	if meta.HasRs2 && in.Rs2 != isa.R0 && t.regReady[in.Rs2&63] > opndReady {
		opndReady = t.regReady[in.Rs2&63]
	}
	if op == isa.RET && t.regReady[isa.RRA] > opndReady {
		opndReady = t.regReady[isa.RRA]
	}
	if opndReady > earliest {
		t.Stats.RAWStalls += opndReady - earliest
		earliest = opndReady
	}
	if earliest > t.cycle {
		t.advanceTo(earliest)
	}
	// Resource constraints: issue width and FU availability.
	need, hi := issueNeed(meta.FU), issueHigh(meta.FU)
	f2 := t.free - need
	for f2&hi != hi {
		t.nextCycle()
		f2 = t.free - need
	}
	t.free = f2
	issueCycle := t.cycle

	// Result latency.
	lat := int(meta.Latency)
	if op == isa.LD || op == isa.FLD {
		lat = t.dLatency(info.MemAddr)
	} else if op == isa.ST || op == isa.FST {
		t.dLatency(info.MemAddr) // stores touch the cache; latency hidden
		lat = 1
	}
	if op == isa.CALL {
		// CALL implicitly defines RRA (see Inst.Defs).
		ready := issueCycle + uint64(lat)
		if t.regReady[isa.RRA] < ready {
			t.regReady[isa.RRA] = ready
		}
	} else if meta.HasRd && in.Rd != isa.R0 {
		ready := issueCycle + uint64(lat)
		if t.regReady[in.Rd&63] < ready {
			t.regReady[in.Rd&63] = ready
		}
	}

	// Control flow and prediction.
	if meta.IsControl && op != isa.HALT {
		redirect := false
		switch {
		case meta.IsCondBranch:
			t.Stats.CondBranches++
			if !t.pred.PredictCond(info.PC, info.Taken) {
				redirect = true
			} else if info.Taken && !t.pred.LookupBTB(info.PC, info.NextPC) {
				redirect = true
			}
		case op == isa.JMP:
			if !t.pred.LookupBTB(info.PC, info.NextPC) {
				redirect = true
			}
		case op == isa.CALL:
			t.pred.PushRAS(info.PC + 1)
			if !t.pred.LookupBTB(info.PC, info.NextPC) {
				redirect = true
			}
		case op == isa.RET:
			if !t.pred.PopRAS(info.NextPC) {
				redirect = true
			}
		case op == isa.JR:
			// Indirect jumps predict through the BTB: the paper's dynamic
			// launch-point alternative pays a redirect when the target
			// changes (i.e. at phase transitions).
			if !t.pred.LookupBTB(info.PC, info.NextPC) {
				redirect = true
			}
		}
		if redirect {
			// Fetch restarts after the branch resolves.
			c := issueCycle + uint64(t.cfg.BranchResolution)
			if t.fetchReady < c {
				t.fetchReady = c
			}
		} else if info.Taken {
			// Correctly predicted taken transfer still ends the fetch
			// packet: following instructions issue next cycle at best.
			t.Stats.FetchBreaks++
			if t.fetchReady < issueCycle+1 {
				t.fetchReady = issueCycle + 1
			}
		}
	}

	t.Stats.Insts++
	if t.inPkg[info.PC] {
		t.Stats.PackageInsts++
	}
}

// Finish freezes and returns the statistics.
func (t *Timing) Finish() TimingStats {
	s := t.Stats
	s.Cycles = t.cycle + 1
	s.CondMispredict = t.pred.CondMispredict
	s.BTBMisses = t.pred.BTBMisses
	s.RASMisses = t.pred.RASMisses
	s.L1IAccesses, s.L1IMisses = t.l1i.Accesses, t.l1i.Misses
	s.L1DAccesses, s.L1DMisses = t.l1d.Accesses, t.l1d.Misses
	s.L2Accesses, s.L2Misses = t.l2.Accesses, t.l2.Misses
	return s
}

// RunTimed runs the program to completion on a fresh machine under this
// timing model and returns the statistics. limit bounds retired
// instructions (0 = unlimited): a run that reaches it before halting
// stops within one dispatch past it with a *LimitError. It dispatches
// through a private, run-local block cache; use RunTimedCached to share
// decoded blocks across repeated runs of the same image.
func RunTimed(cfg Config, img *prog.Image, limit uint64) (TimingStats, *Machine, error) {
	return RunTimedCached(cfg, img, limit, nil)
}

// RunTimedCached is RunTimed with an explicit block cache. A nil bc gets a
// fresh cache; a non-nil bc is re-bound to img (evicting its decoded
// blocks if it was bound to a different image — the invalidation-on-
// install rule) and keeps its entries otherwise, making repeated timed
// runs of one image skip decode entirely.
func RunTimedCached(cfg Config, img *prog.Image, limit uint64, bc *BlockCache) (TimingStats, *Machine, error) {
	return RunTimedHooked(cfg, img, limit, bc, nil)
}

// RunTimedHooked is RunTimedCached calling hook, when non-nil, at every
// retired conditional branch, so one timed run also feeds a branch
// monitor. The hook costs one nil check per conditional branch when it is
// nil and leaves the statistics unchanged either way.
func RunTimedHooked(cfg Config, img *prog.Image, limit uint64, bc *BlockCache, hook BranchHook) (TimingStats, *Machine, error) {
	if bc == nil {
		bc = NewBlockCache(img)
	} else {
		bc.Bind(img)
	}
	m := NewMachine(img)
	t := NewTiming(cfg, img)
	t.onBranch = hook
	if err := t.runBlocks(m, bc, limit); err != nil {
		return TimingStats{}, m, err
	}
	return t.Finish(), m, nil
}
