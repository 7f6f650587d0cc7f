package drift

import (
	"testing"

	"repro/internal/hsd"
	"repro/internal/obs"
	"repro/internal/phasedb"
)

// benchSpots synthesizes a rotating set of hot-spot records so the
// tracker's per-branch maps see realistic churn rather than one cached
// shape.
func benchSpots(n int) []hsd.HotSpot {
	spots := make([]hsd.HotSpot, n)
	for i := range spots {
		base := int64(0x1000 + 0x40*(i%4))
		spots[i] = spot(i, uint64(500*i), pcRange(base, 24), 300, 240)
	}
	return spots
}

// BenchmarkTrackerObserve measures the enabled drift path per ingested
// record: window aggregation plus the amortized close-and-score cost.
// scripts/bench.sh prints it in its microbenchmark section.
func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(Config{Window: DefaultWindow, Ring: DefaultRing}, "bench", obs.Nop{})
	spots := benchSpots(64)
	db := phasedb.New(phasedb.Config{})
	for _, hs := range spots {
		db.Record(hs)
	}
	tr.SetBaseline(db.Snapshot(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(spots[i%len(spots)], i%4)
	}
}

// BenchmarkTrackerObserveDisabled measures the disabled path — the cost
// a daemon run with -driftwindow 0 pays per record, which must stay
// within noise of not having the tracker at all.
func BenchmarkTrackerObserveDisabled(b *testing.B) {
	tr := NewTracker(Config{Window: 0, Ring: 0}, "bench", obs.Nop{})
	spots := benchSpots(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(spots[i%len(spots)], i%4)
	}
}
