package align

// Tests pinning the streaming union's contracts beyond byte-identity
// (equiv_test.go): the counting pass is gated on cheapCount so nested-loop
// plans never pay it, the counted presize covers the materialized rows
// exactly, every plan's streamed output matches the reference
// materialize-then-unionDistinct tail (reference_test.go) on the seeded
// benchmark workloads, and the EXPLAIN counters are populated.

import (
	"context"
	"errors"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/mem"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

// probeAligner reports cheapCount false and fails the test if anything
// drains it — the stand-in for a nested-loop aligner whose counting pass
// would re-run the full conventional joins.
type probeAligner struct {
	t       *testing.T
	drained bool
}

func (p *probeAligner) drain(context.Context, *tp.Relation, emitFunc) error {
	p.drained = true
	p.t.Error("countDrain ran a drain on an aligner without cheap counting")
	return nil
}
func (p *probeAligner) cheapCount() bool { return false }

// TestCountDrainSkipsExpensiveAligners pins the presize gate: a plan whose
// aligner cannot count cheaply (the nested-loop reference) must not pay a
// counting pass — countDrain returns not-ok without draining, and the
// union falls back to append growth.
func TestCountDrainSkipsExpensiveAligners(t *testing.T) {
	r, s := dataset.Webkit(50, 1)
	probe := &probeAligner{t: t}
	c, ok, err := countDrain(context.Background(), probe, r, s)
	if err != nil {
		t.Fatalf("countDrain: %v", err)
	}
	if ok {
		t.Fatal("countDrain reported ok on a cheapCount()==false aligner")
	}
	if c != (drainCounts{}) {
		t.Fatalf("countDrain returned non-zero counts %+v without draining", c)
	}
	if probe.drained {
		t.Fatal("counting pass ran the drain")
	}
	// The real nested-loop aligner is in the same class.
	if newScalarAligner(r, tp.Equi(0, 0), Config{NestedLoop: true}).cheapCount() {
		t.Fatal("scalar aligner claims cheap counting")
	}
}

// streamPresize recomputes the row-buffer presize exactly as the streamed
// join paths do: counting drains per direction, combined by drain mode.
func streamPresize(t *testing.T, op tp.Op, r, s *tp.Relation, theta tp.EquiTheta) int {
	t.Helper()
	ctx := context.Background()
	count := func(inner, outer *tp.Relation, th tp.EquiTheta) drainCounts {
		c, ok, err := countDrain(ctx, mustAligner(inner, th, Config{}), outer, inner)
		if err != nil || !ok {
			t.Fatalf("countDrain(%v): ok=%v err=%v", op, ok, err)
		}
		return c
	}
	switch op {
	case tp.OpInner:
		return count(s, r, theta).rowsFor(drainPairsOnly)
	case tp.OpAnti:
		return count(s, r, theta).rowsFor(drainNegOnly)
	case tp.OpLeft:
		return count(s, r, theta).rowsFor(drainFused)
	case tp.OpRight:
		return count(r, s, tp.Swap(theta)).rowsFor(drainFused)
	case tp.OpFull:
		return count(s, r, theta).rowsFor(drainFused) +
			count(r, s, tp.Swap(theta)).rowsFor(drainNegOnly)
	default:
		panic("unknown op")
	}
}

// TestStreamPresizeCoversRows pins the counting pass to the materialized
// reality on every join shape: the presize equals the pre-union row count
// the drains actually emit (no append regrowth mid-drain) and therefore
// bounds the post-union output.
func TestStreamPresizeCoversRows(t *testing.T) {
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(400, 7) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(300, 7) }},
	} {
		r, s := gen.mk()
		theta := dataset.WebkitTheta()
		for _, op := range ops {
			presize := streamPresize(t, op, r, s, theta)
			var st Stats
			out, err := JoinContext(context.Background(), op, r, s, theta, Config{}, &st)
			if err != nil {
				t.Fatalf("%s %v: %v", gen.name, op, err)
			}
			if int64(presize) != st.Rows {
				t.Errorf("%s %v: presize %d != materialized pre-union rows %d",
					gen.name, op, presize, st.Rows)
			}
			if int64(out.Len()) > st.Rows {
				t.Errorf("%s %v: output %d rows exceeds pre-union count %d",
					gen.name, op, out.Len(), st.Rows)
			}
		}
	}
}

// TestStreamMatchesUnionDistinctOnWorkloads pins the streaming tail to
// the reference (materialize both sub-queries, then unionDistinct)
// byte-for-byte on the seeded benchmark workloads — the workload-scale
// counterpart of TestJoinByteIdenticalToScalar's random relations, where
// per-key chains and group structure are realistic. It runs both plans
// JoinContext routes: the indexed aligner, and the scalar aligner under
// the nested-loop config; the reference itself returns NJ's rows.
func TestStreamMatchesUnionDistinctOnWorkloads(t *testing.T) {
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	eq := dataset.WebkitTheta()
	plans := []struct {
		name string
		cfg  Config
	}{
		{"indexed", Config{}},
		{"nested-loop", Config{NestedLoop: true}},
	}
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(250, 13) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(200, 13) }},
	} {
		r, s := gen.mk()
		for _, pl := range plans {
			for _, op := range ops {
				ref := referenceJoin(op, r, s, eq, pl.cfg)
				if err := oracle.Cross(core.Join(op, r, s, eq), ref); err != nil {
					t.Fatalf("%s %s %v: reference vs NJ: %v", gen.name, pl.name, op, err)
				}
				if err := oracle.Same(ref, Join(op, r, s, eq, pl.cfg)); err != nil {
					t.Fatalf("%s %s %v: %v", gen.name, pl.name, op, err)
				}
			}
		}
	}
}

// TestStreamStatsCounters pins the semantics of the counters the streaming
// union added to Stats: a fused left outer join runs one alignment pass
// (the reference runs two), kills at least one duplicate unmatched
// fragment at the merge frontier on a workload with partial coverage, and
// evaluates probabilities in batches — under the nested-loop plan exactly
// like under the indexed one, since both run the same tail.
func TestStreamStatsCounters(t *testing.T) {
	r, s := dataset.Meteo(300, 5)
	theta := dataset.MeteoTheta()

	for _, cfg := range []Config{{}, {NestedLoop: true}} {
		var st Stats
		if _, err := JoinContext(context.Background(), tp.OpLeft, r, s, theta, cfg, &st); err != nil {
			t.Fatal(err)
		}
		if st.AlignPasses != 1 {
			t.Errorf("%+v fused left outer: AlignPasses = %d, want 1", cfg, st.AlignPasses)
		}
		if st.DupAvoided == 0 {
			t.Errorf("%+v fused left outer on meteo: DupAvoided = 0, want > 0", cfg)
		}
		if st.ProbBatches == 0 {
			t.Errorf("%+v streamed left outer: ProbBatches = 0, want > 0", cfg)
		}
		if st.ShannonSteps != 0 {
			t.Errorf("%+v base relations: ShannonSteps = %d, want 0 (read-once lineage)", cfg, st.ShannonSteps)
		}
	}

	var full Stats
	if _, err := JoinContext(context.Background(), tp.OpFull, r, s, theta, Config{}, &full); err != nil {
		t.Fatal(err)
	}
	if full.AlignPasses != 2 {
		t.Errorf("fused full outer: AlignPasses = %d, want 2", full.AlignPasses)
	}
}

// TestNestedLoopPlanObservesBudgetAndContext pins what the nested-loop
// plan gained by running the shared tail: its union and result buffers are
// charged to the query's memory budget, and a cancellation that lands
// after the last alignment work still aborts the probability tail.
func TestNestedLoopPlanObservesBudgetAndContext(t *testing.T) {
	r, s := dataset.Webkit(250, 3)
	eq := dataset.WebkitTheta()
	cfg := Config{NestedLoop: true}

	ctx := mem.WithGauge(context.Background(), mem.NewGauge(1<<10))
	if out, err := JoinContext(ctx, tp.OpLeft, r, s, eq, cfg, nil); out != nil || !mem.IsBudget(err) {
		t.Fatalf("1 KiB budget: out=%v err=%v, want nil + budget error", out, err)
	}

	// Count the context checks of one run, then cancel on the last one:
	// the drains have no work left to notice it, the tail must. The
	// alignment drain alone checks fewer times, so the last check lies
	// past it.
	counting := &checkCountCtx{Context: context.Background()}
	if _, err := JoinContext(counting, tp.OpLeft, r, s, eq, cfg, nil); err != nil {
		t.Fatal(err)
	}
	drainOnly := &checkCountCtx{Context: context.Background()}
	noop := func(int, interval.Interval, []int32) error { return nil }
	if err := newScalarAligner(s, eq, cfg).drain(drainOnly, r, noop); err != nil {
		t.Fatal(err)
	}
	if drainOnly.calls >= counting.calls {
		t.Fatalf("the join checks its context %d times, its alignment drain alone %d: no check after the drain", counting.calls, drainOnly.calls)
	}
	cancelling := &checkCountCtx{Context: context.Background(), cancelAt: counting.calls}
	if out, err := JoinContext(cancelling, tp.OpLeft, r, s, eq, cfg, nil); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before the tail: out=%v err=%v, want nil + context.Canceled", out, err)
	}
}

// checkCountCtx counts its Err calls and reports context.Canceled from
// the cancelAt-th on (never when cancelAt is 0): a deterministic stand-in
// for a cancellation that lands at one exact checkpoint.
type checkCountCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *checkCountCtx) Err() error {
	if c.calls++; c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}
