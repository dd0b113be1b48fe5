package core

import (
	"context"
	"fmt"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// Allocation-regression pins: the interned-key probe path and the batched
// sweeps must not allocate per window. The ceilings below are generous
// multiples of the measured values (≤ 30 small allocations for pipelines
// producing tens of thousands of windows), so they tolerate runtime
// changes while still failing loudly if a per-probe or per-window
// allocation (like the former strings.Builder equi keys, one per hash
// probe) ever comes back.

// TestKeyHashZeroAlloc pins the hashed key computations themselves: the
// per-probe cost of the interned-key path must be allocation-free.
func TestKeyHashZeroAlloc(t *testing.T) {
	f := tp.Strings("some-file-name.cpp", "rev-source")
	eq := tp.Equi(0, 0)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := eq.RKeyHash(f); !ok {
			t.Fatal("unexpected NULL key")
		}
	}); n != 0 {
		t.Errorf("RKeyHash allocates %v per probe, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = f.KeyHash()
	}); n != 0 {
		t.Errorf("Fact.KeyHash allocates %v per call, want 0", n)
	}
	g := tp.Strings("some-file-name.cpp", "rev-other")
	if n := testing.AllocsPerRun(100, func() {
		_ = eq.Match(f, g)
	}); n != 0 {
		t.Errorf("Match allocates %v per call, want 0", n)
	}
}

// TestProbeAllocsPinned pins the whole interned-key probe path: building
// the dictionary and probing thousands of r tuples must cost a small
// constant number of allocations, independent of the probe count.
func TestProbeAllocsPinned(t *testing.T) {
	r, s := dataset.Webkit(4000, 11)
	theta := dataset.WebkitTheta()
	windows := Count(OverlapJoin(r, s, theta))
	if windows < 2000 {
		t.Fatalf("workload too small to be meaningful: %d windows", windows)
	}
	const ceiling = 30 // measured ~10: table build + batch bookkeeping
	if n := testing.AllocsPerRun(5, func() {
		Count(OverlapJoin(r, s, theta))
	}); n > ceiling {
		t.Errorf("overlap-join probe path allocates %v per run for %d windows, want ≤ %d",
			n, windows, ceiling)
	}
}

// TestBatchedLAWANAllocsPinned pins the batched LAWAN sweep (the full
// OverlapJoin → LAWAU → LAWAN pipeline): allocations must stay a small
// constant, not O(windows). Negating windows inherently allocate their
// λs disjunction, so the input here is built gap-free per chain (one
// active s tuple at a time keeps lineage.Or at its single-operand
// fast path, which does not allocate).
func TestBatchedLAWANAllocsPinned(t *testing.T) {
	mk := func(name string, seed int64) *tp.Relation {
		rel := tp.NewRelation(name, "Key", "Group")
		for k := 0; k < 40; k++ {
			start := interval.Time(seed)
			for c := 0; c < 25; c++ {
				iv := interval.New(start, start+10)
				rel.Append(tp.Strings(fmt.Sprintf("k%02d", k), name), iv, 0.5)
				start += 10 // adjacent: no gaps, single coverage
			}
		}
		return rel
	}
	r, s := mk("r", 1), mk("s", 3)
	theta := tp.Equi(0, 0)
	windows := Count(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
	if windows < 1000 {
		t.Fatalf("workload too small to be meaningful: %d windows", windows)
	}
	const ceiling = 40 // measured ~12: table build + heap/queue warmup
	if n := testing.AllocsPerRun(5, func() {
		Count(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
	}); n > ceiling {
		t.Errorf("batched LAWAN sweep allocates %v per run for %d windows, want ≤ %d",
			n, windows, ceiling)
	}
}

// TestSmallJoinFootprint pins the bytes a join over a handful of tuples
// allocates: Fig. 1a's a ⟕ b through JoinContext. Its window hops are
// sized from the inputs (hopSize); BatchSize-window buffers for its three
// stages would add ≈ 78 KB and fail the ceiling.
func TestSmallJoinFootprint(t *testing.T) {
	a, b := paperA(), paperB()
	const ceiling = 72 << 10 // ≈ 2× the measured 36 KB, most of it the BatchSize tuple tail
	res := testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			if _, err := JoinContext(context.Background(), tp.OpLeft, a, b, theta); err != nil {
				bb.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > ceiling {
		t.Errorf("Fig. 1a left outer join allocates %d B per run, want ≤ %d", got, ceiling)
	}
}

// TestSmallJoinStageBatches: a hop sized below BatchSize still holds all
// a stage can emit, so every stage of a Fig. 1a join hands its windows
// over in one batch — the counts EXPLAIN ANALYZE prints with BatchSize
// hops.
func TestSmallJoinStageBatches(t *testing.T) {
	for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
		it, _, instr := JoinStreamInstrumented(op, paperA(), paperB(), theta)
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
		for _, st := range instr.Stages {
			if st.Windows > 0 && st.Batches != 1 {
				t.Errorf("%v: stage %s moved %d windows in %d batches, want 1", op, st.Name, st.Windows, st.Batches)
			}
		}
	}
}
