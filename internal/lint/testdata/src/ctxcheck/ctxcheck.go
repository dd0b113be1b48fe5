// Package ctxfix exercises the ctxcheck analyzer. It is loaded under
// the import path fixture/internal/engine/ctxfix so the execution-scope
// regexp applies; the same shapes under a non-matching path must stay
// silent (see the ctxscope fixture).
package ctxfix

import "context"

type Tuple struct{ Prob float64 }

type Relation struct{ Tuples []Tuple }

type Operator interface {
	Next() (Tuple, bool, error)
}

// Gauge mirrors mem.Gauge: Charge is a budget checkpoint.
type Gauge struct{ used int64 }

func (g *Gauge) Charge(n int64) error {
	g.used += n
	return nil
}

// drainNoCheckpoint pulls tuples forever without ever observing the
// context it was handed — the PR 3 contract violation.
func drainNoCheckpoint(ctx context.Context, op Operator) (n int, err error) {
	_ = ctx
	for { // want "ctxcheck: drain loop has no cancellation checkpoint"
		_, ok, err := op.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// rangeNoCheckpoint scans relation tuples with a context in scope and
// no checkpoint.
func rangeNoCheckpoint(ctx context.Context, rel *Relation) float64 {
	_ = ctx
	s := 0.0
	for _, t := range rel.Tuples { // want "ctxcheck: drain loop has no cancellation checkpoint"
		s += t.Prob
	}
	return s
}

// drainWithErrCheck checkpoints via ctx.Err every iteration: conforming.
func drainWithErrCheck(ctx context.Context, op Operator) (n int, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		_, ok, err := op.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// drainWithGauge checkpoints through the budget gauge: conforming.
func drainWithGauge(g *Gauge, ctx context.Context, op Operator) (n int, err error) {
	_ = ctx
	for {
		_, ok, err := op.Next()
		if err != nil || !ok {
			return n, err
		}
		if err := g.Charge(1); err != nil {
			return n, err
		}
		n++
	}
}

// drainPassingCtx threads the context into a callee: conforming — the
// callee owns the checkpoint.
func drainPassingCtx(ctx context.Context, op Operator, step func(context.Context) error) (n int, err error) {
	for {
		_, ok, err := op.Next()
		if err != nil || !ok {
			return n, err
		}
		if err := step(ctx); err != nil {
			return n, err
		}
		n++
	}
}

// drainNoCtxInScope has no context anywhere: the contract binds only
// functions the context was threaded into.
func drainNoCtxInScope(op Operator) (n int) {
	for {
		_, ok, _ := op.Next()
		if !ok {
			return n
		}
		n++
	}
}

// BatchSource mirrors core.Iterator: one NextBatch call moves a
// whole batch between stages.
type BatchSource interface {
	NextBatch(buf []Tuple) int
}

// batchTailNoCheckpoint is the batched probability tail's shape minus
// its checkpoint: batches are pulled and processed in a loop that never
// observes the context — one giant tail runs to completion under a
// cancelled query.
func batchTailNoCheckpoint(ctx context.Context, src BatchSource, buf []Tuple) (n int) {
	_ = ctx
	for { // want "ctxcheck: drain loop has no cancellation checkpoint"
		k := src.NextBatch(buf)
		if k == 0 {
			return n
		}
		n += k
	}
}

// batchTailPerBatchErr checkpoints once per batch, not per tuple — the
// conforming batched-tail idiom (the checkpoint cost amortizes over the
// whole batch).
func batchTailPerBatchErr(ctx context.Context, src BatchSource, buf []Tuple) (n int, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		k := src.NextBatch(buf)
		if k == 0 {
			return n, nil
		}
		n += k
	}
}

// nonDrainLoop has a context in scope but pulls nothing: not a drain.
func nonDrainLoop(ctx context.Context, xs []int) int {
	_ = ctx
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
