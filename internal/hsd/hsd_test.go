package hsd

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

// smallConfig keeps detection windows short for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Sets = 16
	cfg.Ways = 4
	cfg.RefreshInterval = 256
	cfg.ClearInterval = 4096
	cfg.HDCBits = 8 // detect after ~128 candidate-dominated branches
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Sets = 0; return c }(),
		func() Config { c := DefaultConfig(); c.CounterBits = 40; return c }(),
		func() Config { c := DefaultConfig(); c.HDCBits = 0; return c }(),
		func() Config { c := DefaultConfig(); c.HDCInc, c.HDCDec = 0, 0; return c }(),
		func() Config { c := DefaultConfig(); c.RefreshInterval = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{}, nil)
}

func TestDetectsTightLoop(t *testing.T) {
	var spots []HotSpot
	d := New(smallConfig(), func(h HotSpot) { spots = append(spots, h) })
	// Two branches executed round-robin: a loop backedge (always taken)
	// and an if (taken 25%).
	for i := 0; i < 5000; i++ {
		d.Branch(100, true)
		d.Branch(104, i%4 == 0)
	}
	if len(spots) == 0 {
		t.Fatal("no hot spot detected for a tight loop")
	}
	hs := spots[0]
	if len(hs.Branches) != 2 {
		t.Fatalf("hot spot has %d branches, want 2", len(hs.Branches))
	}
	byPC := map[int64]BranchRecord{}
	for _, b := range hs.Branches {
		byPC[b.PC] = b
	}
	if f := byPC[100].TakenFraction(); f < 0.99 {
		t.Errorf("backedge taken fraction = %v, want ~1", f)
	}
	if f := byPC[104].TakenFraction(); f < 0.15 || f > 0.35 {
		t.Errorf("if taken fraction = %v, want ~0.25", f)
	}
	if hs.DetectedAtBranch == 0 {
		t.Error("detection timestamp missing")
	}
}

func TestNoDetectionForUniformRandomStream(t *testing.T) {
	cfg := smallConfig()
	d := New(cfg, func(h HotSpot) {
		t.Error("detected a hot spot in a stream with no locality")
	})
	// Thousands of distinct branch PCs, each executed a couple of times:
	// none become candidates, so the HDC never drains.
	pc := int64(0)
	for i := 0; i < 20000; i++ {
		d.Branch(pc, i%2 == 0)
		pc += 7
	}
	if d.Stats.Detections != 0 {
		t.Error("unexpected detections")
	}
	if d.Stats.Clears == 0 {
		t.Error("clear timer should have fired for an undetectable stream")
	}
}

func TestCounterSaturationPreservesFraction(t *testing.T) {
	cfg := smallConfig()
	cfg.ClearInterval = 1 << 20 // keep the entry alive
	cfg.HDCBits = 12            // delay detection past counter saturation
	var got *HotSpot
	d := New(cfg, func(h HotSpot) { got = &h })
	// One branch, 75% taken, executed far beyond the 9-bit counter range.
	for i := 0; i < 4000 && got == nil; i++ {
		d.Branch(42, i%4 != 0)
	}
	if d.Stats.Saturations == 0 {
		t.Fatal("counter should have saturated")
	}
	if got == nil {
		t.Fatal("expected a detection")
	}
	var rec *BranchRecord
	for i := range got.Branches {
		if got.Branches[i].PC == 42 {
			rec = &got.Branches[i]
		}
	}
	if rec == nil {
		t.Fatal("saturated branch missing from hot spot")
	}
	if rec.Exec > 1<<cfg.CounterBits-1 {
		t.Errorf("exec count %d exceeds counter width", rec.Exec)
	}
	if f := rec.TakenFraction(); f < 0.70 || f > 0.80 {
		t.Errorf("taken fraction after saturation = %v, want ~0.75", f)
	}
}

// trackedBranches counts the valid entries the BBB currently holds.
func trackedBranches(d *Detector) int {
	n := 0
	for i := range d.table {
		if d.table[i].valid {
			n++
		}
	}
	return n
}

func TestContentionDropsUntrackableBranches(t *testing.T) {
	cfg := smallConfig()
	cfg.Sets = 1
	cfg.Ways = 2
	cfg.HDCBits = 16
	d := New(cfg, nil)
	// Two branches become candidates and fill the only set.
	for i := 0; i < 64; i++ {
		d.Branch(1, true)
		d.Branch(2, true)
	}
	if trackedBranches(d) != 2 {
		t.Fatalf("tracked = %d, want 2", trackedBranches(d))
	}
	before := d.Stats.ContentionDrop
	d.Branch(3, true) // no free way, both ways are candidates
	if d.Stats.ContentionDrop != before+1 {
		t.Error("third branch should have been dropped for contention")
	}
}

func TestRefreshEvictsNonCandidates(t *testing.T) {
	cfg := smallConfig()
	cfg.RefreshInterval = 64
	d := New(cfg, nil)
	// A candidate branch plus a one-shot branch.
	for i := 0; i < 32; i++ {
		d.Branch(1, true)
	}
	d.Branch(999, true)
	if trackedBranches(d) != 2 {
		t.Fatalf("tracked = %d, want 2", trackedBranches(d))
	}
	for i := 0; i < 64; i++ {
		d.Branch(1, true)
	}
	if d.Stats.Refreshes == 0 {
		t.Fatal("refresh should have fired")
	}
	if trackedBranches(d) != 1 {
		t.Errorf("tracked after refresh = %d, want 1 (non-candidate evicted)", trackedBranches(d))
	}
}

func TestDetectionResetsForNextPhase(t *testing.T) {
	var spots []HotSpot
	d := New(smallConfig(), func(h HotSpot) { spots = append(spots, h) })
	for i := 0; i < 3000; i++ {
		d.Branch(100, true)
	}
	n1 := len(spots)
	if n1 == 0 {
		t.Fatal("phase 1 not detected")
	}
	// New phase with different branches: detected as well.
	for i := 0; i < 3000; i++ {
		d.Branch(500, false)
		d.Branch(504, true)
	}
	if len(spots) <= n1 {
		t.Fatal("phase 2 not detected")
	}
	last := spots[len(spots)-1]
	for _, b := range last.Branches {
		if b.PC == 100 {
			t.Error("stale phase-1 branch in phase-2 hot spot")
		}
	}
	// Sequence numbers are strictly increasing.
	for i := 1; i < len(spots); i++ {
		if spots[i].Seq != spots[i-1].Seq+1 {
			t.Error("non-sequential hot spot numbering")
		}
	}
}

func TestSetInstCountStampsDetections(t *testing.T) {
	var got HotSpot
	d := New(smallConfig(), func(h HotSpot) { got = h })
	d.SetInstCount(12345)
	for i := 0; i < 3000; i++ {
		d.Branch(7, true)
	}
	if d.Stats.Detections == 0 {
		t.Fatal("no detection")
	}
	if got.DetectedAtInst != 12345 {
		t.Errorf("DetectedAtInst = %d, want 12345", got.DetectedAtInst)
	}
}

// Property: counters never exceed their configured widths and taken <= exec
// for every reported record, for arbitrary branch streams.
func TestQuickCounterInvariants(t *testing.T) {
	cfg := smallConfig()
	f := func(pcs []uint16, dirs []bool) bool {
		ok := true
		d := New(cfg, func(h HotSpot) {
			for _, b := range h.Branches {
				if b.Taken > b.Exec || b.Exec > 1<<cfg.CounterBits-1 {
					ok = false
				}
			}
		})
		for i, pc := range pcs {
			taken := i < len(dirs) && dirs[i%len(dirs)]
			// Restrict to 64 distinct PCs so candidates actually form.
			d.Branch(int64(pc%64)*4, taken)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHDCBounds(t *testing.T) {
	cfg := smallConfig()
	d := New(cfg, nil)
	max := uint32(1<<cfg.HDCBits - 1)
	if d.HDC() != max {
		t.Fatalf("initial HDC = %d, want %d", d.HDC(), max)
	}
	// Non-candidate stream keeps it pinned at max.
	for i := 0; i < 100; i++ {
		d.Branch(int64(i*8), true)
	}
	if d.HDC() != max {
		t.Errorf("HDC = %d after non-candidate stream, want %d", d.HDC(), max)
	}
}

// TestHotSpotWireJSON pins HotSpot's JSON to the v1 ingest record that
// vpackd decodes and that clients with their own encoders (perfbench's
// daemon workload among them) produce byte for byte.
func TestHotSpotWireJSON(t *testing.T) {
	hs := HotSpot{
		Seq:              0,
		DetectedAtBranch: 2310,
		DetectedAtInst:   55346,
		Branches:         []BranchRecord{{PC: 7301, Exec: 291, Taken: 252}},
	}
	const want = `{"seq":0,"at_branch":"2310","at_inst":"55346","branches":[{"pc":7301,"exec":291,"taken":252}]}`
	got, err := json.Marshal(hs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("json.Marshal(HotSpot) =\n%s\nwant\n%s", got, want)
	}
	var back HotSpot
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if back.DetectedAtBranch != hs.DetectedAtBranch || back.DetectedAtInst != hs.DetectedAtInst ||
		len(back.Branches) != 1 || back.Branches[0] != hs.Branches[0] {
		t.Fatalf("decoded %+v, want %+v", back, hs)
	}
}
