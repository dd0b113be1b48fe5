// Package obs is tpjoin's observability layer: lock-free log-bucketed
// histograms, the server/REPL metrics collector with its Prometheus text
// exposition (one Render path shared by the \metrics builtin and the HTTP
// /metrics endpoint, so the surfaces cannot drift), and the slog-based
// structured query log that gives every statement a joinable identity
// (query ID, session, strategy, latency, error class). ErrClass is the
// closed failure-class vocabulary the wire, the query log and clients
// share.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket, log-scale histogram safe for concurrent
// use without locks: Observe is an atomic add on one bucket counter plus
// a CAS loop on the running sum, so recording on the query hot path costs
// a few uncontended atomics and never blocks a /metrics scrape.
//
// The zero value is unusable; construct with NewHistogram (the bucket
// bounds are fixed for the histogram's lifetime, which is what makes the
// lock-free scheme sound).
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets in
	// ascending order; an implicit +Inf bucket catches the overflow.
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits of the running sum
	count  atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// LatencyBounds is the query-latency bucket scheme: two buckets per
// decade (×√10 steps, rounded to three significant digits so the le
// labels render cleanly) from 100µs to 100s. Values in seconds.
func LatencyBounds() []float64 {
	return []float64{
		0.0001, 0.000316,
		0.001, 0.00316,
		0.01, 0.0316,
		0.1, 0.316,
		1, 3.16,
		10, 31.6,
		100,
	}
}

// RowBounds is the result-cardinality bucket scheme: two buckets per
// decade from 1 row to 1M rows.
func RowBounds() []float64 {
	return []float64{1, 3, 10, 31, 100, 316, 1000, 3160, 10000, 31600, 100000, 316000, 1e6}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is ≥ v; len(bounds) is the +Inf
	// bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot copies the histogram state. Bucket counters are read
// individually, so a snapshot taken during concurrent Observes may be off
// by in-flight increments (consistent with the rest of the metrics
// counters) but never torn within one counter. Count is clamped to at
// least the bucket total: Observe bumps the bucket before the count, so
// a scrape can land between the two, and rendering a +Inf bucket below
// the last finite cumulative bucket would violate the exposition's
// histogram invariant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	var total int64
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		total += s.Counts[i]
	}
	s.Count = h.count.Load()
	if s.Count < total {
		s.Count = total
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: per-bucket
// (non-cumulative) counts, the observation sum and the observation count.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1, last is the +Inf bucket
	Sum    float64
	Count  int64
}
