package align

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// TestParallelMatchesSequential: the partitioned executor must produce
// the same row multiset as the sequential baseline for every operator
// (order is partition-major, so rows are compared sorted).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 50; trial++ {
		r := denseRandRelation(rng, "r", rng.Intn(30))
		s := denseRandRelation(rng, "s", rng.Intn(30))
		op := ops[trial%len(ops)]
		workers := 1 + trial%4
		want := renderRows(Join(op, r, s, theta, Config{}))
		got := renderRows(ParallelJoin(op, r, s, theta, Config{}, workers))
		sort.Strings(want)
		sort.Strings(got)
		if len(want) != len(got) {
			t.Fatalf("trial %d %v w=%d: %d vs %d rows", trial, op, workers, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d %v w=%d: row %d differs:\n  want %s\n  got  %s",
					trial, op, workers, i, want[i], got[i])
			}
		}
	}
}

// TestParallelOnWorkloads runs the same multiset pin on the seeded
// benchmark workloads, with stats accounting checked against the
// sequential run.
func TestParallelOnWorkloads(t *testing.T) {
	r, s := dataset.Meteo(600, 7)
	theta := dataset.MeteoTheta()
	var seq, par Stats
	want := renderRows(func() *tp.Relation {
		out, err := JoinContext(context.Background(), tp.OpLeft, r, s, theta, Config{}, &seq)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}())
	got := renderRows(func() *tp.Relation {
		out, err := ParallelJoinContext(context.Background(), tp.OpLeft, r, s, theta, Config{}, 3, &par)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}())
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("parallel meteo left join diverges from sequential")
	}
	if par.Workers != 3 || par.Partitions != 12 {
		t.Errorf("parallel stats workers=%d partitions=%d, want 3/12", par.Workers, par.Partitions)
	}
	// The partitions together run the same passes over the same tuples:
	// fragment and pre-union row totals match the sequential run exactly
	// (fragments are per outer tuple, and every tuple lands in exactly one
	// partition). Pass counts multiply by the partition count.
	if par.Fragments != seq.Fragments || par.Rows != seq.Rows {
		t.Errorf("parallel counters fragments=%d rows=%d, sequential %d/%d",
			par.Fragments, par.Rows, seq.Fragments, seq.Rows)
	}
	if par.AlignPasses != seq.AlignPasses*par.Partitions {
		t.Errorf("align passes = %d, want %d per partition × %d", par.AlignPasses, seq.AlignPasses, par.Partitions)
	}
}

// TestParallelCancelledJoinsWorkers: a cancelled parallel TA returns
// ctx.Err() with all workers joined (the function does not return until
// wg.Wait), within the regression bound.
func TestParallelCancelledMidOpen(t *testing.T) {
	r, s := dataset.Meteo(12000, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err := ParallelJoinContext(ctx, tp.OpLeft, r, s, dataset.MeteoTheta(), Config{}, 2, nil)
	if out != nil || (!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)) {
		t.Fatalf("cancelled parallel TA: out=%v err=%v, want nil + context error", out, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want ≤ 2s", elapsed)
	}
}

// TestParallelWorkerPanicPropagates pins the containment contract: a
// query panic inside a partition worker (here the documented MergeProbs
// panic on conflicting base-event probabilities) must re-surface on the
// calling goroutine, where the surfaces' panic-to-error recovery can
// catch it — a panic left on the worker goroutine would kill the whole
// shared server process. If propagation regresses, this test crashes the
// test binary rather than failing politely, which is the point.
func TestParallelWorkerPanicPropagates(t *testing.T) {
	mk := func(p float64) *tp.Relation {
		rel := tp.NewRelation("x", "Key")
		rel.Append(tp.Strings("k"), interval.New(0, 10), p)
		return rel
	}
	// Same relation name ⇒ same base-event variables; different
	// probabilities ⇒ the per-partition MergeProbs in finish panics
	// inside a worker.
	r, s := mk(0.5), mk(0.6)
	defer func() {
		if rec := recover(); rec == nil {
			t.Fatal("expected the worker panic to propagate to the caller")
		}
	}()
	ParallelJoin(tp.OpLeft, r, s, tp.Equi(0, 0), Config{}, 2)
}

// TestSingleKeyDrainCancels pins the mid-drain cancellation fix: a
// pathological relation whose tuples all share one join key concentrates
// the entire alignment in a single key group — the per-64-outer-tuples
// check alone would only fire after each tuple drained its λ·fragments
// rows. The work-budget checks inside the index build and the fragment
// drain must abort it within the regression bound.
func TestSingleKeyDrainCancels(t *testing.T) {
	mk := func(name string, n int) *tp.Relation {
		rel := tp.NewRelation(name, "Key", "ID")
		for i := 0; i < n; i++ {
			// All tuples share the key and mutually overlap; the ID column
			// keeps facts distinct so the sequenced constraint holds.
			rel.Append(tp.Strings("k", fmt.Sprintf("%s%06d", name, i)),
				interval.New(interval.Time(i), interval.Time(i+n)), 0.5)
		}
		return rel
	}
	r, s := mk("r", 2500), mk("s", 2500)
	theta := tp.Equi(0, 0)
	for _, cfg := range []Config{{}, {NestedLoop: true}} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		// The join runs on its own goroutine so that a drain ignoring its
		// deadline fails this test by name at the bound instead of
		// growing its output until the process runs out of memory.
		done := make(chan error, 1)
		go func() {
			_, err := JoinContext(ctx, tp.OpLeft, r, s, theta, cfg, nil)
			done <- err
		}()
		select {
		case err := <-done:
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cfg %+v: err = %v, want DeadlineExceeded", cfg, err)
			}
		case <-time.After(2 * time.Second):
			cancel()
			t.Fatalf("cfg %+v: single-key alignment did not observe cancellation within 2s", cfg)
		}
	}
}
