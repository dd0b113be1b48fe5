package engine

// Every operator whose Open materializes runs the same three promises
// through the shared blocking state and the one drain loop: the query
// context is observed while Open works, a memory budget on it is charged
// for what Open buffers, and a second Open scans from the first tuple
// again. Before they shared that code, Sort never charged, the set
// operations and DISTINCT took no context at all, and a LIMIT above any of
// them let the statement slip under its budget.

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/dataset"
	"tpjoin/internal/mem"
	"tpjoin/internal/tp"
)

// countdownCtx counts its Err calls and reports context.Canceled from the
// (k+1)-th on: a deterministic stand-in for a deadline that fires while
// an operator is working, where a wall-clock bound would be too loose to
// tell one checkpoint from the next.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
}

func cancelAfterChecks(k int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(k)
	return c
}

// neverCancel counts the checkpoints of a run that is not cancelled.
func neverCancel() *countdownCtx { return cancelAfterChecks(math.MaxInt64) }

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func byProbDesc(a, b tp.Tuple) bool { return a.Prob > b.Prob }

// blockingOperators builds one fresh tree per blocking operator over the
// Webkit relations r, s (bare scans, so nothing below the operator under
// test checks or charges on its behalf).
func blockingOperators(t *testing.T, r, s *tp.Relation) map[string]func() Operator {
	t.Helper()
	join := func(strategy Strategy) func() Operator {
		return func() Operator {
			j := NewTPJoin(tp.OpLeft, NewScan(r), NewScan(s), dataset.WebkitTheta(), strategy, align.Config{})
			j.SetWorkers(2)
			return j
		}
	}
	setop := func(kind SetOpKind) func() Operator {
		return func() Operator { return NewTPSetOp(kind, NewScan(r), NewScan(s)) }
	}
	return map[string]func() Operator{
		"TPJoin/TA":  join(StrategyTA),
		"TPJoin/PNJ": join(StrategyPNJ),
		"TPJoin/PTA": join(StrategyPTA),
		"TPSetOp/∪":  setop(SetUnion),
		"TPSetOp/∩":  setop(SetIntersect),
		"TPSetOp/−":  setop(SetExcept),
		"LineageDistinct": func() Operator {
			d, err := NewLineageDistinct(NewScan(r), []int{0}, []string{"Key"})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"Sort": func() Operator { return NewSort(NewScan(r), byProbDesc) },
	}
}

func TestBlockingOperatorsBudgetCancelReopen(t *testing.T) {
	r, s := dataset.Webkit(3000, 5)
	for name, mk := range blockingOperators(t, r, s) {
		// A 1 KiB budget is spent inside Open, whatever consumes the
		// operator afterwards.
		op := mk()
		BindContext(mem.WithGauge(context.Background(), mem.NewGauge(1<<10)), op)
		if err := op.Open(); !mem.IsBudget(err) {
			t.Errorf("%s: Open under a 1 KiB budget: err = %v, want a budget error", name, err)
		}
		op.Close()

		// A cancelled context stops Open, and so does one that fires
		// after Open's first checkpoints passed.
		for _, ctx := range []context.Context{cancelAfterChecks(0), cancelAfterChecks(2)} {
			op = mk()
			BindContext(ctx, op)
			if err := op.Open(); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: Open under a cancelled context: err = %v, want context.Canceled", name, err)
			}
			op.Close()
		}

		// A second Open scans from the first tuple again.
		inst := Instrument(mk())
		first, err := Run(inst, "first")
		if err != nil {
			t.Fatalf("%s: first run: %v", name, err)
		}
		second, err := Run(inst, "second")
		if err != nil {
			t.Fatalf("%s: second run: %v", name, err)
		}
		if first.Len() == 0 || second.Len() != first.Len() || inst.OpStats().Rows != int64(first.Len()) {
			t.Fatalf("%s: second run: %d rows (stats %d); first run had %d",
				name, second.Len(), inst.OpStats().Rows, first.Len())
		}
		for i := range first.Tuples {
			if first.Tuples[i].String() != second.Tuples[i].String() {
				t.Fatalf("%s: row %d differs after re-Open:\n first:  %v\n second: %v",
					name, i, first.Tuples[i], second.Tuples[i])
			}
		}
	}
}

// TestMemoryBudgetOrderByLimit: ORDER BY buffers its whole input, so the
// rows a statement holds in memory do not shrink because a LIMIT sits on
// top. Under NJ the join streams, leaving Sort the only place that can
// charge them; a set operation materializes them itself. Either way a
// statement that exceeds its budget without the ORDER BY … LIMIT 1 must
// exceed it with it.
func TestMemoryBudgetOrderByLimit(t *testing.T) {
	r, s := dataset.Webkit(12000, 1)
	const budget = 256 << 10
	sources := map[string]func() Operator{
		"NJ left join": func() Operator {
			return NewTPJoin(tp.OpLeft, NewScan(r), NewScan(s), dataset.WebkitTheta(), StrategyNJ, align.Config{})
		},
		"∪": func() Operator { return NewTPSetOp(SetUnion, NewScan(r), NewScan(s)) },
		"∩": func() Operator { return NewTPSetOp(SetIntersect, NewScan(r), NewScan(s)) },
		"−": func() Operator { return NewTPSetOp(SetExcept, NewScan(r), NewScan(s)) },
	}
	for name, mk := range sources {
		for _, wrap := range []struct {
			name string
			op   Operator
		}{
			{"", mk()},
			{" ORDER BY P DESC LIMIT 1", NewLimit(NewSort(mk(), byProbDesc), 1)},
		} {
			ctx := mem.WithGauge(context.Background(), mem.NewGauge(budget))
			if _, err := RunContext(ctx, wrap.op, "out"); !mem.IsBudget(err) {
				t.Errorf("%s%s under a %d-byte budget: err = %v, want a budget error",
					name, wrap.name, budget, err)
			}
		}
	}
}
