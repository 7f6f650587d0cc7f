package phasedb

import (
	"testing"

	"repro/internal/hsd"
)

func mkSpot(seq int, at uint64, branches ...hsd.BranchRecord) hsd.HotSpot {
	return hsd.HotSpot{Seq: seq, DetectedAtBranch: at, DetectedAtInst: at * 10, Branches: branches}
}

func br(pc int64, exec, taken uint32) hsd.BranchRecord {
	return hsd.BranchRecord{PC: pc, Exec: exec, Taken: taken}
}

func TestIdenticalHotSpotsMerge(t *testing.T) {
	db := New(DefaultConfig())
	a := mkSpot(0, 100, br(1, 100, 90), br(2, 100, 10))
	b := mkSpot(1, 200, br(1, 100, 95), br(2, 100, 5))
	p1 := db.Record(a)
	p2 := db.Record(b)
	if p1 != p2 {
		t.Fatal("identical hot spots should merge into one phase")
	}
	if len(db.Phases) != 1 || db.Redundant != 1 {
		t.Errorf("phases=%d redundant=%d, want 1/1", len(db.Phases), db.Redundant)
	}
	if p1.Detections != 2 {
		t.Errorf("detections = %d, want 2", p1.Detections)
	}
	// Representative-window semantics: the phase holds one window's
	// counts, not the union/sum of all windows.
	if got := p1.Branches[1].Exec; got != 100 {
		t.Errorf("representative exec = %d, want 100", got)
	}
	if p1.FirstAtBranch != 100 || p1.LastAtBranch != 200 {
		t.Errorf("span = [%d,%d], want [100,200]", p1.FirstAtBranch, p1.LastAtBranch)
	}
}

func TestDisjointBranchSetsSeparate(t *testing.T) {
	db := New(DefaultConfig())
	db.Record(mkSpot(0, 1, br(1, 50, 40), br(2, 50, 40)))
	db.Record(mkSpot(1, 2, br(10, 50, 40), br(11, 50, 40)))
	if len(db.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(db.Phases))
	}
}

func TestThirtyPercentRule(t *testing.T) {
	db := New(DefaultConfig())
	// Phase with 10 branches.
	var recs []hsd.BranchRecord
	for i := int64(0); i < 10; i++ {
		recs = append(recs, br(i, 100, 90))
	}
	db.Record(mkSpot(0, 1, recs...))

	// 2 of 10 replaced (20% missing each way): same phase.
	same := append([]hsd.BranchRecord{}, recs[:8]...)
	same = append(same, br(100, 100, 90), br(101, 100, 90))
	db.Record(mkSpot(1, 2, same...))
	if len(db.Phases) != 1 {
		t.Fatalf("20%% difference should merge, phases = %d", len(db.Phases))
	}
	// 4 of 10 replaced (40%): different phase. Use the *original* set as
	// baseline overlap so the first phase is still the nearest match.
	diff := append([]hsd.BranchRecord{}, recs[:6]...)
	diff = append(diff, br(200, 100, 90), br(201, 100, 90), br(202, 100, 90), br(203, 100, 90))
	db.Record(mkSpot(2, 3, diff...))
	if len(db.Phases) != 2 {
		t.Fatalf("40%% difference should separate, phases = %d", len(db.Phases))
	}
}

func TestBiasFlipSeparates(t *testing.T) {
	db := New(DefaultConfig())
	db.Record(mkSpot(0, 1, br(1, 100, 90), br(2, 100, 90)))
	// Same branch set but branch 2 flips from taken-biased to
	// not-taken-biased: the paper's second criterion separates them.
	db.Record(mkSpot(1, 2, br(1, 100, 90), br(2, 100, 10)))
	if len(db.Phases) != 2 {
		t.Fatalf("bias flip should separate phases, got %d", len(db.Phases))
	}
}

func TestBiasFlipToleranceConfigurable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBiasFlips = 1
	db := New(cfg)
	db.Record(mkSpot(0, 1, br(1, 100, 90), br(2, 100, 90)))
	db.Record(mkSpot(1, 2, br(1, 100, 90), br(2, 100, 10)))
	if len(db.Phases) != 1 {
		t.Fatalf("one flip should be tolerated with MaxBiasFlips=1, got %d phases", len(db.Phases))
	}
}

func TestUnbiasedDriftIsNotAFlip(t *testing.T) {
	db := New(DefaultConfig())
	db.Record(mkSpot(0, 1, br(1, 100, 90), br(2, 100, 50)))
	// Branch 2 drifts from unbiased to taken-biased: not a flip.
	db.Record(mkSpot(1, 2, br(1, 100, 90), br(2, 100, 80)))
	if len(db.Phases) != 1 {
		t.Fatalf("unbiased drift should merge, got %d phases", len(db.Phases))
	}
}

func TestEmptyHotSpots(t *testing.T) {
	db := New(DefaultConfig())
	p1 := db.Record(mkSpot(0, 1))
	p2 := db.Record(mkSpot(1, 2))
	if p1 != p2 {
		t.Error("two empty hot spots should merge")
	}
	p3 := db.Record(mkSpot(2, 3, br(1, 50, 25)))
	if p3 == p1 {
		t.Error("non-empty hot spot should not merge with empty phase")
	}
}

func TestTimelineRecordsPhaseChanges(t *testing.T) {
	db := New(DefaultConfig())
	db.Record(mkSpot(0, 10, br(1, 100, 90)))              // inst 100
	db.Record(mkSpot(1, 20, br(50, 100, 90)))             // inst 200
	db.Record(mkSpot(2, 30, br(1, 100, 90), br(1, 1, 1))) // inst 300, phase 0 again
	// The timeline records which phase went live at each detection stamp,
	// re-detections of an existing phase included.
	want := []struct {
		inst  uint64
		phase int
	}{{100, 0}, {200, 1}, {300, 0}}
	if len(db.Timeline) != len(want) {
		t.Fatalf("timeline = %+v, want %d transitions", db.Timeline, len(want))
	}
	for i, w := range want {
		if tr := db.Timeline[i]; tr.AtInst != w.inst || tr.PhaseID != w.phase {
			t.Errorf("timeline[%d] = %+v, want phase %d at inst %d", i, tr, w.phase, w.inst)
		}
	}
}

func TestSortedBranchesAndTotals(t *testing.T) {
	db := New(DefaultConfig())
	ph := db.Record(mkSpot(0, 1, br(5, 10, 5), br(2, 20, 10), br(9, 30, 15)))
	sorted := ph.SortedBranches()
	if len(sorted) != 3 || sorted[0].PC != 2 || sorted[2].PC != 9 {
		t.Errorf("sorted = %v", sorted)
	}
	if ph.TotalExec() != 60 {
		t.Errorf("TotalExec = %d, want 60", ph.TotalExec())
	}
	if db.String() == "" {
		t.Error("String empty")
	}
}

func TestBiasOf(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		frac float64
		want Bias
	}{
		{0.0, BiasNotTaken}, {0.3, BiasNotTaken}, {0.31, BiasNone},
		{0.5, BiasNone}, {0.69, BiasNone}, {0.7, BiasTaken}, {1.0, BiasTaken},
	}
	for _, c := range cases {
		if got := cfg.BiasOf(c.frac); got != c.want {
			t.Errorf("BiasOf(%v) = %v, want %v", c.frac, got, c.want)
		}
	}
	if BiasTaken.String() != "T" || BiasNotTaken.String() != "F" || BiasNone.String() != "U" {
		t.Error("Bias strings wrong")
	}
}

func TestCategorize(t *testing.T) {
	db := New(DefaultConfig())
	// Phase 0: pc1 biased T, pc2 unbiased, pc3 biased T, pc4 unbiased.
	db.Record(mkSpot(0, 1,
		br(1, 100, 95), // unique biased
		br(2, 100, 50), // unique unbiased
		br(3, 100, 95), // multi high (flips to 5% in phase 1)
		br(4, 100, 55), // multi: biased in phase 1, swing 0.35 => same
		br(5, 100, 50), // multi no bias
	))
	// Phase 1 shares pc3 (flipped — separates by rule 2), pc4, pc5.
	db.Record(mkSpot(1, 2,
		br(3, 100, 5),  // flipped
		br(4, 100, 90), // biased now; swing 0.35
		br(5, 100, 45), // still unbiased
		br(6, 100, 95),
	))
	if len(db.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(db.Phases))
	}
	cz := db.Categorize()
	if cz.Count[UniqueBiased] < 2 { // pc1 and pc6
		t.Errorf("UniqueBiased count = %d, want >= 2", cz.Count[UniqueBiased])
	}
	if cz.Count[UniqueUnbiased] != 1 { // pc2
		t.Errorf("UniqueUnbiased = %d, want 1", cz.Count[UniqueUnbiased])
	}
	if cz.Count[MultiHigh] != 1 { // pc3 swings 0.90
		t.Errorf("MultiHigh = %d, want 1", cz.Count[MultiHigh])
	}
	if cz.Count[MultiSame] != 1 { // pc4 swings 0.35
		t.Errorf("MultiSame = %d, want 1", cz.Count[MultiSame])
	}
	if cz.Count[MultiNoBias] != 1 { // pc5
		t.Errorf("MultiNoBias = %d, want 1", cz.Count[MultiNoBias])
	}
	var sum float64
	for c := Category(0); c < NumCategories; c++ {
		sum += cz.Fraction(c)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "?" {
			t.Errorf("category %d has no name", c)
		}
	}
}

func TestMultiLow(t *testing.T) {
	db := New(DefaultConfig())
	// Same branch in two phases with a 0.5 swing: Multi Low. To keep the
	// phases separate, give each mostly disjoint branch sets.
	db.Record(mkSpot(0, 1, br(1, 100, 90), br(2, 100, 90), br(3, 100, 90), br(10, 100, 40)))
	db.Record(mkSpot(1, 2, br(7, 100, 90), br(8, 100, 90), br(9, 100, 90), br(10, 100, 90)))
	if len(db.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(db.Phases))
	}
	cz := db.Categorize()
	if cz.Count[MultiLow] != 1 {
		t.Errorf("MultiLow = %d, want 1 (pc10 swings 0.5)", cz.Count[MultiLow])
	}
}

// TestTooDifferent pins the 30% rule's boundary: exactly 30% missing
// already separates two hot spots.
func TestTooDifferent(t *testing.T) {
	cfg := DefaultConfig()
	for _, tc := range []struct {
		missing, size int
		want          bool
	}{
		{3, 10, true},
		{2, 10, false},
		{1, 3, true},
		{0, 3, false},
		{10, 10, true},
	} {
		if got := cfg.TooDifferent(tc.missing, tc.size); got != tc.want {
			t.Errorf("TooDifferent(%d, %d) = %v, want %v", tc.missing, tc.size, got, tc.want)
		}
	}
}
