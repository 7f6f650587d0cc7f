package drift

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
)

// spot builds one synthetic hot-spot record over the given PCs, each
// branch executing exec times and taking taken of them, stamped at inst.
func spot(seq int, inst uint64, pcs []int64, exec, taken uint32) hsd.HotSpot {
	hs := hsd.HotSpot{Seq: seq, DetectedAtBranch: inst / 4, DetectedAtInst: inst}
	for _, pc := range pcs {
		hs.Branches = append(hs.Branches, hsd.BranchRecord{PC: pc, Exec: exec, Taken: taken})
	}
	return hs
}

func pcRange(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(8*i)
	}
	return out
}

// baselineFrom records the spots into a fresh phase database and digests
// its snapshot — the same path the daemon takes when publishing.
func baselineFrom(t *testing.T, tr *Tracker, version int, spots []hsd.HotSpot) {
	t.Helper()
	db := phasedb.New(phasedb.Config{})
	for _, hs := range spots {
		db.Record(hs)
	}
	tr.SetBaseline(db.Snapshot(), version)
}

func TestWindowAggregationAndRingBound(t *testing.T) {
	cfg := Config{Window: 4, Ring: 3}
	tr := NewTracker(cfg, "prog", obs.Nop{})
	pcs := pcRange(1000, 8)

	closes := 0
	const records = 40 // 10 windows through a 3-window ring
	for i := 0; i < records; i++ {
		if tr.Observe(spot(i, uint64(100*i), pcs, 100, 90), 0) {
			closes++
		}
	}
	if closes != records/cfg.Window {
		t.Fatalf("closed %d windows, want %d", closes, records/cfg.Window)
	}
	tl := tr.Timeline()
	if len(tl) != cfg.Ring {
		t.Fatalf("timeline retains %d windows, want ring bound %d", len(tl), cfg.Ring)
	}
	// The retained windows are the newest, in order, each fully sized.
	wantSeq := records/cfg.Window - cfg.Ring + 1
	for i, ws := range tl {
		if ws.Seq != wantSeq+i {
			t.Errorf("timeline[%d].Seq = %d, want %d", i, ws.Seq, wantSeq+i)
		}
		if ws.Records != cfg.Window {
			t.Errorf("timeline[%d].Records = %d, want %d", i, ws.Records, cfg.Window)
		}
		if ws.Branches != len(pcs) {
			t.Errorf("timeline[%d].Branches = %d, want %d", i, ws.Branches, len(pcs))
		}
		if ws.FirstInst >= ws.LastInst {
			t.Errorf("timeline[%d] inst span [%d,%d] not increasing", i, ws.FirstInst, ws.LastInst)
		}
		if len(ws.Phases) != 1 || ws.Phases[0] != 0 {
			t.Errorf("timeline[%d].Phases = %v, want [0]", i, ws.Phases)
		}
	}
	st := tr.Status()
	if st.Samples != records || st.Windows != int64(records/cfg.Window) {
		t.Fatalf("status samples/windows = %d/%d, want %d/%d",
			st.Samples, st.Windows, records, records/cfg.Window)
	}
}

func TestScoreZeroWithoutBaseline(t *testing.T) {
	tr := NewTracker(Config{Window: 2, Ring: 4}, "p", obs.Nop{})
	for i := 0; i < 8; i++ {
		tr.Observe(spot(i, uint64(i), pcRange(0, 4), 10, 9), -1)
	}
	s := tr.Score()
	if s.Composite != 0 || s.BaselineVersion != 0 || s.WindowsScored != 0 {
		t.Fatalf("pre-baseline score = %+v, want zeroes", s)
	}
	// The timeline still accumulates so a later baseline can be scored
	// retroactively by the caller.
	if len(tr.Timeline()) != 4 {
		t.Fatalf("timeline len = %d, want 4", len(tr.Timeline()))
	}
}

func TestScoreStableStream(t *testing.T) {
	cfg := Config{Window: 4, Ring: 8}
	tr := NewTracker(cfg, "p", obs.Nop{})
	pcs := pcRange(0x400, 12)
	var spots []hsd.HotSpot
	for i := 0; i < 16; i++ {
		spots = append(spots, spot(i, uint64(1000*i), pcs, 200, 180))
	}
	baselineFrom(t, tr, 1, spots)
	for _, hs := range spots {
		tr.Observe(hs, 0)
	}
	s := tr.Score()
	if s.BaselineVersion != 1 {
		t.Fatalf("baseline version = %d, want 1", s.BaselineVersion)
	}
	if s.Composite > 0.05 {
		t.Fatalf("stable stream drift composite = %.4f, want ~0 (%+v)", s.Composite, s)
	}
	if s.BiasFlips != 0 || s.FilterCrossings != 0 {
		t.Fatalf("stable stream flips/crossings = %d/%.2f, want 0/0", s.BiasFlips, s.FilterCrossings)
	}
}

func TestScoreBiasFlip(t *testing.T) {
	tr := NewTracker(Config{Window: 4, Ring: 8}, "p", obs.Nop{})
	pcs := pcRange(0x400, 10)
	var base []hsd.HotSpot
	for i := 0; i < 8; i++ {
		base = append(base, spot(i, uint64(1000*i), pcs, 100, 90)) // taken-biased
	}
	baselineFrom(t, tr, 1, base)
	for i := 0; i < 8; i++ {
		tr.Observe(spot(i, uint64(1000*i), pcs, 100, 10), 0) // flipped: not-taken
	}
	s := tr.Score()
	if s.BiasFlips != len(pcs) {
		t.Fatalf("bias flips = %d, want %d", s.BiasFlips, len(pcs))
	}
	if s.Composite < 0.9 {
		t.Fatalf("all-flipped composite = %.4f, want ~1 (%+v)", s.Composite, s)
	}
	// Same branch set, same weights: the other axes stay quiet.
	if s.HotSetDivergence > 0.05 {
		t.Fatalf("flip-only divergence = %.4f, want ~0", s.HotSetDivergence)
	}
}

func TestScoreHotSetShift(t *testing.T) {
	tr := NewTracker(Config{Window: 4, Ring: 8}, "p", obs.Nop{})
	var base []hsd.HotSpot
	for i := 0; i < 8; i++ {
		base = append(base, spot(i, uint64(1000*i), pcRange(0x400, 10), 100, 90))
	}
	baselineFrom(t, tr, 1, base)
	// A disjoint hot set: maximal divergence, every window crosses the
	// 30% rule, no common branches to flip.
	for i := 0; i < 8; i++ {
		tr.Observe(spot(i, uint64(9000+1000*i), pcRange(0x8000, 10), 100, 90), 1)
	}
	s := tr.Score()
	if s.HotSetDivergence < 0.95 {
		t.Fatalf("disjoint divergence = %.4f, want ~1", s.HotSetDivergence)
	}
	if s.FilterCrossings != 1 {
		t.Fatalf("crossings = %.2f, want 1", s.FilterCrossings)
	}
	if s.BiasFlips != 0 {
		t.Fatalf("flips = %d, want 0", s.BiasFlips)
	}
	if s.Composite < 0.95 {
		t.Fatalf("composite = %.4f, want ~1", s.Composite)
	}
	// The timeline's newest window carries the same verdict.
	tl := tr.Timeline()
	last := tl[len(tl)-1]
	if !last.Crossed || last.Divergence < 0.95 {
		t.Fatalf("last window = %+v, want crossed with ~1 divergence", last)
	}
}

func TestPartialShiftScoresBetween(t *testing.T) {
	tr := NewTracker(Config{Window: 4, Ring: 8}, "p", obs.Nop{})
	var base []hsd.HotSpot
	for i := 0; i < 8; i++ {
		base = append(base, spot(i, uint64(1000*i), pcRange(0x400, 10), 100, 90))
	}
	baselineFrom(t, tr, 1, base)
	// One branch of ten swaps out: below the 30% filter rule, so only the
	// divergence axis moves, and only slightly.
	mixed := append(pcRange(0x400, 9), 0x8000)
	for i := 0; i < 8; i++ {
		tr.Observe(spot(i, uint64(1000*i), mixed, 100, 90), 1)
	}
	s := tr.Score()
	if s.HotSetDivergence < 0.05 || s.HotSetDivergence > 0.2 {
		t.Fatalf("mild-shift divergence = %.4f, want ~0.1", s.HotSetDivergence)
	}
	if s.FilterCrossings != 0 {
		t.Fatalf("mild-shift crossings = %.2f, want 0 (below 30%% rule)", s.FilterCrossings)
	}
	if s.Composite <= 0.02 || s.Composite >= 0.5 {
		t.Fatalf("mild-shift composite = %.4f, want small but nonzero", s.Composite)
	}
}

func TestBaselineSwapAndPeak(t *testing.T) {
	tr := NewTracker(Config{Window: 4, Ring: 8}, "p", obs.Nop{})
	var base []hsd.HotSpot
	for i := 0; i < 8; i++ {
		base = append(base, spot(i, uint64(1000*i), pcRange(0x400, 10), 100, 90))
	}
	baselineFrom(t, tr, 1, base)
	var shifted []hsd.HotSpot
	for i := 0; i < 8; i++ {
		shifted = append(shifted, spot(i, uint64(1000*i), pcRange(0x8000, 10), 100, 90))
	}
	for _, hs := range shifted {
		tr.Observe(hs, 1)
	}
	high := tr.Score()
	if high.Composite < 0.9 {
		t.Fatalf("shifted composite = %.4f, want ~1", high.Composite)
	}

	// Rebaselining on the shifted profile drops the live score back but
	// the peak remembers the excursion.
	baselineFrom(t, tr, 2, shifted)
	s := tr.Score()
	if s.BaselineVersion != 2 {
		t.Fatalf("baseline version = %d, want 2", s.BaselineVersion)
	}
	if s.Composite > 0.05 {
		t.Fatalf("rebaselined composite = %.4f, want ~0", s.Composite)
	}
	if s.Peak < high.Composite {
		t.Fatalf("peak = %.4f lost the excursion %.4f", s.Peak, high.Composite)
	}
}

// TestScoreServesLastMeasurement drives a tracker through a seeded random
// sequence of records and baseline swaps, and after every step checks
// that Score serves what a fresh scoring of the current ring against the
// current baseline gives. The axes sum over maps, so floats compare
// within a rounding tolerance.
func TestScoreServesLastMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTracker(Config{Window: 3, Ring: 5, Recent: 2}, "p", obs.Nop{})
	var recent []hsd.HotSpot
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	swaps := 0
	for step := 0; step < 400; step++ {
		if rng.Intn(8) == 0 && len(recent) > 0 {
			swaps++
			baselineFrom(t, tr, swaps, recent)
			recent = recent[:0]
		} else {
			pcs := pcRange(0x400*int64(1+rng.Intn(4)), 4+rng.Intn(8))
			exec := uint32(50 + rng.Intn(100))
			hs := spot(step, uint64(1000*step), pcs, exec, uint32(rng.Intn(int(exec)+1)))
			recent = append(recent, hs)
			tr.Observe(hs, rng.Intn(3))
		}
		got, want := tr.Score(), tr.FreshScore()
		if got.BiasFlips != want.BiasFlips || got.WindowsScored != want.WindowsScored ||
			got.BaselineVersion != want.BaselineVersion || !near(got.HotSetDivergence, want.HotSetDivergence) ||
			!near(got.FilterCrossings, want.FilterCrossings) || !near(got.Composite, want.Composite) ||
			!near(got.Peak, want.Peak) {
			t.Fatalf("step %d (%d baselines): Score %+v, fresh %+v", step, swaps, got, want)
		}
	}
	if swaps < 10 {
		t.Fatalf("only %d baseline swaps in the sequence", swaps)
	}
}

func TestDisabledTracker(t *testing.T) {
	for _, cfg := range []Config{{}, {Window: 0, Ring: 8}, {Window: 8, Ring: 0}} {
		tr := NewTracker(cfg, "p", obs.Nop{})
		if tr.Enabled() {
			t.Fatalf("config %+v reports enabled", cfg)
		}
		for i := 0; i < 32; i++ {
			if tr.Observe(spot(i, uint64(i), pcRange(0, 4), 10, 9), 0) {
				t.Fatal("disabled tracker closed a window")
			}
		}
		tr.SetBaseline(&phasedb.Snapshot{}, 1)
		if st := tr.Status(); st.Samples != 0 || st.Windows != 0 || st.BaselineVersion != 0 {
			t.Fatalf("disabled tracker status = %+v, want zeroes", st)
		}
		if tl := tr.Timeline(); len(tl) != 0 {
			t.Fatalf("disabled tracker timeline = %v", tl)
		}
	}
}

// TestTrackerMetricsAndEvents checks the observer export: gauges, the
// always-present counters and the score histogram, and no obs events
// (window closes and baselines reach /v1/events through the daemon).
func TestTrackerMetricsAndEvents(t *testing.T) {
	rec := obs.NewRecorder()
	tr := NewTracker(Config{Window: 2, Ring: 4}, "gzip", rec)
	var base []hsd.HotSpot
	for i := 0; i < 4; i++ {
		base = append(base, spot(i, uint64(1000*i), pcRange(0x400, 6), 100, 90))
	}
	baselineFrom(t, tr, 3, base)
	for i := 0; i < 4; i++ {
		tr.Observe(spot(i, uint64(1000*i), pcRange(0x9000, 6), 100, 90), 1)
	}

	tx := rec.Export()
	if got := tx.Metrics.Counters[obs.DriftSamples.Name]; got != 4 {
		t.Errorf("%s = %d, want 4", obs.DriftSamples.Name, got)
	}
	if got := tx.Metrics.Counters[obs.DriftWindows.For("gzip")]; got != 2 {
		t.Errorf("%s.gzip = %d, want 2", obs.DriftWindows.Name, got)
	}
	if got := tx.Metrics.Gauges[obs.DriftScore.For("gzip")]; got < 0.9 {
		t.Errorf("%s.gzip = %.4f, want ~1", obs.DriftScore.Name, got)
	}
	if got := tx.Metrics.Gauges[obs.DriftBaselineVersion.For("gzip")]; got != 3 {
		t.Errorf("%s.gzip = %v, want 3", obs.DriftBaselineVersion.Name, got)
	}
	if h, ok := tx.Metrics.Histograms[obs.DriftScorePct.Name]; !ok || h.Count != 2 {
		t.Errorf("%s count = %+v, want 2 observations", obs.DriftScorePct.Name, h)
	}
	if len(tx.Events) != 0 {
		t.Errorf("tracker emitted %d obs events, want none: %+v", len(tx.Events), tx.Events)
	}
}

// TestTrackerConcurrent hammers one tracker from concurrent writers and
// readers — the daemon's ingest threads race its HTTP readers. Run under
// -race in scripts/verify.sh.
func TestTrackerConcurrent(t *testing.T) {
	rec := obs.NewRecorder()
	tr := NewTracker(Config{Window: 4, Ring: 16}, "p", rec)
	var base []hsd.HotSpot
	for i := 0; i < 8; i++ {
		base = append(base, spot(i, uint64(1000*i), pcRange(0x400, 8), 100, 90))
	}
	baselineFrom(t, tr, 1, base)

	const writers, perWriter = 16, 64
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Observe(spot(i, uint64(wr*perWriter+i), pcRange(0x400, 8), 100, 90), 0)
			}
		}(wr)
	}
	for rd := 0; rd < 8; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				tr.Score()
				tr.Timeline()
				tr.Status()
			}
		}()
	}
	wg.Wait()
	st := tr.Status()
	if st.Samples != writers*perWriter {
		t.Fatalf("samples = %d, want %d", st.Samples, writers*perWriter)
	}
	if st.Windows != writers*perWriter/4 {
		t.Fatalf("windows = %d, want %d", st.Windows, writers*perWriter/4)
	}
	if len(tr.Timeline()) != 16 {
		t.Fatalf("timeline len = %d, want ring bound 16", len(tr.Timeline()))
	}
}

func TestEventRingCursor(t *testing.T) {
	r := NewEventRing(4)
	if ev, earliest, next := r.Since(0, 0); len(ev) != 0 || earliest != 0 || next != 0 {
		t.Fatalf("empty ring Since = %v, %d, %d", ev, earliest, next)
	}
	for i := 1; i <= 3; i++ {
		if seq := r.Append(StreamEvent{Kind: EventIngest, N: int64(i)}); seq != int64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	ev, earliest, next := r.Since(0, 0)
	if len(ev) != 3 || earliest != 1 || next != 3 {
		t.Fatalf("Since(0) = %d events, earliest %d, next %d", len(ev), earliest, next)
	}
	for i, e := range ev {
		if e.Seq != int64(i+1) || e.N != int64(i+1) {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	// Cursor resume: only the new events.
	r.Append(StreamEvent{Kind: EventWindow, N: 4})
	ev, _, next = r.Since(next, 0)
	if len(ev) != 1 || ev[0].N != 4 || next != 4 {
		t.Fatalf("resumed Since = %+v, next %d", ev, next)
	}
	// Overflow: ring of 4 keeps seqs 2..5; a stale cursor observes the gap
	// through earliest.
	r.Append(StreamEvent{Kind: EventWindow, N: 5})
	ev, earliest, next = r.Since(0, 0)
	if len(ev) != 4 || earliest != 2 || ev[0].Seq != 2 || next != 5 {
		t.Fatalf("overflowed Since = %d events, earliest %d, first %d, next %d",
			len(ev), earliest, ev[0].Seq, next)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	// Limit slices from the cursor forward.
	ev, _, next = r.Since(1, 2)
	if len(ev) != 2 || ev[0].Seq != 2 || next != 3 {
		t.Fatalf("limited Since = %+v, next %d", ev, next)
	}
}

func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(64)
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Append(StreamEvent{Kind: EventIngest, Program: fmt.Sprint(w)})
			}
		}(w)
	}
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor int64
			for i := 0; i < 50; i++ {
				ev, _, next := r.Since(cursor, 16)
				for j := 1; j < len(ev); j++ {
					if ev[j].Seq != ev[j-1].Seq+1 {
						t.Errorf("non-contiguous seqs %d -> %d", ev[j-1].Seq, ev[j].Seq)
						return
					}
				}
				cursor = next
			}
		}()
	}
	wg.Wait()
	ev, _, _ := r.Since(0, 0)
	if len(ev) != 64 {
		t.Fatalf("retained %d events, want 64", len(ev))
	}
	if last := ev[len(ev)-1].Seq; last != writers*per {
		t.Fatalf("last seq = %d, want %d", last, writers*per)
	}
}

// TestShiftHotSpots: the synthetic shift drops the first two fifths of
// each record's branches, keeps the survivors' PCs and exec counts,
// flips their taken counts, and leaves its input untouched.
func TestShiftHotSpots(t *testing.T) {
	in := []hsd.HotSpot{
		spot(0, 400, pcRange(0x100, 10), 20, 3),
		spot(1, 800, pcRange(0x400, 7), 9, 9),
		spot(2, 1200, pcRange(0x800, 2), 5, 1),
		{Seq: 3},
	}
	in[0].Branches[9].Taken = 20
	orig := make([]hsd.HotSpot, len(in))
	for i, hs := range in {
		orig[i] = hs
		orig[i].Branches = append([]hsd.BranchRecord(nil), hs.Branches...)
	}

	out := ShiftHotSpots(in)
	if len(out) != len(in) {
		t.Fatalf("%d records out of %d", len(out), len(in))
	}
	// ⌊2n/5⌋ of n = 10, 7, 2, 0 branches drop.
	kept := []int{6, 5, 2, 0}
	for i, hs := range out {
		src := orig[i]
		if hs.Seq != src.Seq || hs.DetectedAtBranch != src.DetectedAtBranch || hs.DetectedAtInst != src.DetectedAtInst {
			t.Errorf("record %d header %+v, want %+v", i, hs, src)
		}
		if len(hs.Branches) != kept[i] {
			t.Errorf("record %d: kept %d of %d branches, want %d", i, len(hs.Branches), len(src.Branches), kept[i])
			continue
		}
		drop := len(src.Branches) - kept[i]
		for j, b := range hs.Branches {
			want := src.Branches[drop+j]
			if b.PC != want.PC || b.Exec != want.Exec || b.Taken != want.Exec-want.Taken {
				t.Errorf("record %d branch %d = %+v, want pc %d exec %d taken %d", i, j, b, want.PC, want.Exec, want.Exec-want.Taken)
			}
		}
	}
	for i := range in {
		if len(in[i].Branches) != len(orig[i].Branches) {
			t.Fatalf("input record %d resized", i)
		}
		for j := range in[i].Branches {
			if in[i].Branches[j] != orig[i].Branches[j] {
				t.Fatalf("input record %d branch %d mutated: %+v, was %+v", i, j, in[i].Branches[j], orig[i].Branches[j])
			}
		}
	}
}
