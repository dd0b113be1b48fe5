package align

import (
	"context"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
)

// Allocation-regression pins for the refactored alignment path, the TA
// counterpart of core's PR-2 pins: one alignment pass over a built index
// must not allocate per tuple, per fragment or per cover entry, and the
// whole count path (index build included) must stay flat in the input
// size — the former implementation allocated a points slice and a sort
// per outer tuple plus a cover slice per fragment, O(n) and worse.

// TestAlignPassAllocsPinned pins a drain over a prebuilt index to zero
// allocations regardless of workload size.
func TestAlignPassAllocsPinned(t *testing.T) {
	for _, n := range []int{4000, 16000} {
		r, s := dataset.Meteo(n, 11)
		theta := dataset.MeteoTheta()
		al := mustAligner(s, theta, Config{})
		count := 0
		emit := func(ri int, iv interval.Interval, cover []int32) error {
			count += len(cover) + 1
			return nil
		}
		// Warm-up proves the drain works.
		if err := al.drain(context.Background(), r, emit); err != nil || count == 0 {
			t.Fatalf("n=%d: warm-up drain: count=%d err=%v", n, count, err)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			_ = al.drain(context.Background(), r, emit)
		}); allocs > 0 {
			t.Errorf("n=%d: alignment pass allocates %v per drain, want 0", n, allocs)
		}
	}
}

// TestCountPathAllocsFlat pins the full CountWUO/CountNegating operation
// (index build + both passes' enumeration) to a small constant ceiling at
// two input sizes: the ceiling covers the per-key-group bookkeeping (the
// Meteo profile has a fixed key population), so a regression back to
// per-tuple or per-fragment allocation fails at the larger size.
func TestCountPathAllocsFlat(t *testing.T) {
	const ceiling = 600 // measured ≈170 (key grouping + arena growth); generous headroom
	for _, n := range []int{4000, 16000} {
		r, s := dataset.Meteo(n, 11)
		theta := dataset.MeteoTheta()
		if rows := CountWUO(r, s, theta, Config{}); rows < n {
			t.Fatalf("n=%d: workload too small to be meaningful: %d rows", n, rows)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			CountWUO(r, s, theta, Config{})
		}); allocs > ceiling {
			t.Errorf("n=%d: CountWUO allocates %v per run, want ≤ %d (flat in n)", n, allocs, ceiling)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			CountNegating(r, s, theta, Config{})
		}); allocs > ceiling {
			t.Errorf("n=%d: CountNegating allocates %v per run, want ≤ %d (flat in n)", n, allocs, ceiling)
		}
	}
}
