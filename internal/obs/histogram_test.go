package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramObserveBuckets(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	// One observation per bucket region: below the first bound, inside a
	// middle bucket, above the last bound.
	h.Observe(0.00005) // ≤ 0.0001
	h.Observe(0.005)   // (0.00316, 0.01]
	h.Observe(250)     // +Inf bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if got := s.Sum; math.Abs(got-250.00505) > 1e-9 {
		t.Errorf("sum = %v, want 250.00505", got)
	}
	if s.Counts[0] != 1 {
		t.Errorf("first bucket = %d, want 1", s.Counts[0])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket sum %d != count %d", total, s.Count)
	}

	// A value exactly on a bound lands in that bound's bucket (le
	// semantics: inclusive upper bound).
	h2 := NewHistogram([]float64{1, 10})
	h2.Observe(1)
	if s2 := h2.Snapshot(); s2.Counts[0] != 1 {
		t.Errorf("boundary value not in its le bucket: %v", s2.Counts)
	}
}

// TestHistogramConcurrentObserve drives concurrent Observes against
// snapshots; run under -race this pins the lock-free scheme, and the
// final totals prove no increment was lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	// Concurrent scrapes while observers run.
	for i := 0; i < 100; i++ {
		_ = h.Snapshot()
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(workers * perWorker); s.Count != want {
		t.Errorf("count = %d, want %d", s.Count, want)
	}
	var wantSum float64
	for w := 0; w < workers; w++ {
		wantSum += float64(w+1) * 0.001 * perWorker
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v (lost updates?)", s.Sum, wantSum)
	}
}
