package obs

import (
	"sync"
	"testing"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0},
		{1.5, 1}, {2, 1},
		{3, 2}, {4, 2},
		{5, 3},
		{1024, 10}, {1025, 11},
		{1 << 39, 39},
		{float64(uint64(1)<<39) + 1, NumHistogramBounds}, // overflow
		{1e18, NumHistogramBounds},
	}
	bounds := HistogramBounds()
	if len(bounds) != NumHistogramBounds || bounds[0] != 1 || bounds[10] != 1024 {
		t.Fatalf("bounds layout wrong: len=%d first=%v", len(bounds), bounds[0])
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestRecorderHistogramExport(t *testing.T) {
	r := NewRecorder()
	r.Observe("eval.cycles", 3)    // bucket 2
	r.Observe("eval.cycles", 4)    // bucket 2
	r.Observe("eval.cycles", 1000) // bucket 10
	tr := r.Export()
	h, ok := tr.Metrics.Histograms["eval.cycles"]
	if !ok {
		t.Fatal("histogram missing from export")
	}
	if h.Count != 3 || h.Sum != 1007 {
		t.Errorf("count=%d sum=%v, want 3/1007", h.Count, h.Sum)
	}
	if len(h.Buckets) != 11 || h.Buckets[2] != 2 || h.Buckets[10] != 1 {
		t.Errorf("buckets = %v, want trimmed length 11 with [2]=2 [10]=1", h.Buckets)
	}
}

func TestSpanEndFeedsWallTimeHistogram(t *testing.T) {
	r := NewRecorder()
	r.StartSpan(StageProfile).End()
	r.StartSpan(StageProfile).End()
	tr := r.Export()
	h, ok := tr.Metrics.Histograms["span_us."+StageProfile]
	if !ok {
		t.Fatal("span wall-time histogram missing")
	}
	if h.Count != 2 {
		t.Errorf("count = %d, want 2", h.Count)
	}
}

func TestAbsorbMergesHistograms(t *testing.T) {
	child := NewRecorder()
	child.Observe("eval.cycles", 3)
	child.Observe("eval.cycles", 5000)
	parent := NewRecorder()
	parent.Observe("eval.cycles", 3)
	parent.Absorb(child.Export())
	parent.Absorb(child.Export())
	h := parent.Export().Metrics.Histograms["eval.cycles"]
	if h.Count != 5 || h.Sum != 3+2*5003.0 {
		t.Errorf("merged count=%d sum=%v, want 5/%v", h.Count, h.Sum, 3+2*5003.0)
	}
	if h.Buckets[2] != 3 {
		t.Errorf("bucket[2] = %d, want 3", h.Buckets[2])
	}
}

func TestNormalizeZeroesTimeValuedHistogramsOnly(t *testing.T) {
	r := NewRecorder()
	r.StartSpan(StageProfile).End() // span_us.profile
	r.Observe("eval.cycles", 42)
	r.Observe("custom_us", 17)
	tr := r.Export().Normalize()
	if h := tr.Metrics.Histograms["span_us."+StageProfile]; h.Count != 0 || h.Sum != 0 || h.Buckets != nil {
		t.Errorf("span_us histogram not zeroed: %+v", h)
	}
	if h := tr.Metrics.Histograms["custom_us"]; h.Count != 0 {
		t.Errorf("_us-suffixed histogram not zeroed: %+v", h)
	}
	if h := tr.Metrics.Histograms["eval.cycles"]; h.Count != 1 || h.Sum != 42 {
		t.Errorf("count-valued histogram was zeroed: %+v", h)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines mixing
// StartSpan/End, Emit, Count, Gauge, Observe and Absorb — the shapes a
// parallel suite run and a live /metrics scrape produce concurrently.
// It exists to run under -race (scripts/verify.sh does).
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	donor := NewRecorder()
	donor.StartSpan("pipeline").End()
	donor.Count("c", 1)
	donor.Observe("eval.cycles", 9)
	donorTrace := donor.Export()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := r.StartSpan(StageProfile)
				r.Emit(Event{Kind: PhaseDetected, Phase: i})
				r.Count("profile.insts", 10)
				r.Gauge("eval.speedup", 1.01)
				r.Observe("eval.cycles", float64(i))
				if i%50 == 0 {
					r.Absorb(donorTrace)
				}
				if i%10 == 0 {
					r.ActiveSpan()
					r.ActiveStage()
					r.Export() // concurrent scrape
				}
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr := r.Export()
	if tr.Metrics.Counters["profile.insts"] != 8*200*10 {
		t.Errorf("counter = %d, want %d", tr.Metrics.Counters["profile.insts"], 8*200*10)
	}
	wantObs := uint64(8*200) + 4*8 // direct observations + absorbed donor histograms
	if h := tr.Metrics.Histograms["eval.cycles"]; h.Count != wantObs {
		t.Errorf("histogram count = %d, want %d", h.Count, wantObs)
	}
}
