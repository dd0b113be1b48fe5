package engine

import (
	"context"
	"time"

	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// This file is the executor side of EXPLAIN ANALYZE: an accounting
// decorator that times Open/Next/Close per operator, and the context
// binding that hands the query context to operators whose Open blocks
// (the TA baseline and the PNJ partition barrier both materialize there).
// Instrumentation is opt-in per query — plain execution never pays the
// two time.Now calls per tuple.

// OpStats are the ANALYZE counters of one instrumented operator.
type OpStats struct {
	// Rows is the number of tuples the operator produced.
	Rows int64
	// WallNanos is the wall time spent inside the operator and its
	// inputs (inclusive, like PostgreSQL's "actual time"): Open + all
	// Next calls.
	WallNanos int64
	// OpenNanos is the part of WallNanos spent in Open; a blocking
	// operator (TA, PNJ, Sort, set operations) does nearly all of its
	// work there.
	OpenNanos int64
}

// Instrumented decorates an operator with ANALYZE accounting. It forwards
// the Operator contract unchanged; plan rendering unwraps it via Inner to
// describe the node and reads OpStats for the actual rows/time columns.
type Instrumented struct {
	op    Operator
	stats OpStats
}

// Instrument wraps every node of the operator tree in an accounting
// decorator and returns the wrapped root. The tree is rewired in place:
// each operator's children become their wrapped counterparts, so interior
// drains (a join materializing its build side) are accounted too. Joins
// additionally get their strategy-level stage accounting enabled
// (window-pipeline counters under NJ, alignment counters under TA,
// partition counters under PNJ).
func Instrument(op Operator) *Instrumented {
	switch o := op.(type) {
	case *Filter:
		o.in = Instrument(o.in)
	case *Project:
		o.in = Instrument(o.in)
	case *Limit:
		o.in = Instrument(o.in)
	case *Sort:
		o.in = Instrument(o.in)
	case *LineageDistinct:
		o.in = Instrument(o.in)
	case *TPSetOp:
		o.left = Instrument(o.left)
		o.right = Instrument(o.right)
	case *TPJoin:
		o.left = Instrument(o.left)
		o.right = Instrument(o.right)
		o.instr = true
	}
	return &Instrumented{op: op}
}

// Inner returns the decorated operator.
func (i *Instrumented) Inner() Operator { return i.op }

// OpStats returns the counters accumulated since the last Open.
func (i *Instrumented) OpStats() OpStats { return i.stats }

// Open implements Operator, timing the inner Open and resetting the
// counters.
func (i *Instrumented) Open() error {
	i.stats = OpStats{}
	start := time.Now()
	err := i.op.Open()
	i.stats.OpenNanos = int64(time.Since(start))
	i.stats.WallNanos = i.stats.OpenNanos
	return err
}

// Next implements Operator.
func (i *Instrumented) Next() (tp.Tuple, bool, error) {
	start := time.Now()
	t, ok, err := i.op.Next()
	i.stats.WallNanos += int64(time.Since(start))
	if ok {
		i.stats.Rows++
	}
	return t, ok, err
}

// Close implements Operator.
func (i *Instrumented) Close() error { return i.op.Close() }

// Attrs implements Operator.
func (i *Instrumented) Attrs() []string { return i.op.Attrs() }

// Probs implements Operator.
func (i *Instrumented) Probs() prob.Probs { return i.op.Probs() }

// Stats implements Operator, reporting the decorator's own row count (the
// inner count matches; reading it here avoids a virtual hop).
func (i *Instrumented) Stats() Stats { return Stats{Rows: i.stats.Rows} }

// ContextBinder is implemented by operators whose Open must observe the
// query context — every operator with a materializing Open, through the
// blocking state they embed — so cancellation and the memory budget abort
// mid-Open rather than at the next tuple boundary. RunContext binds the
// context over the whole tree before Open; operators that never block
// ignore it.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// BindContext hands ctx to every ContextBinder in the operator tree
// (including operators wrapped by Instrumented).
func BindContext(ctx context.Context, op Operator) {
	if i, ok := op.(*Instrumented); ok {
		BindContext(ctx, i.op)
		return
	}
	if b, ok := op.(ContextBinder); ok {
		b.BindContext(ctx)
	}
	for _, k := range Children(op) {
		if k != nil {
			BindContext(ctx, k)
		}
	}
}

// Children enumerates an operator's inputs through the Child/Children
// accessors every composite node exposes (nil for a leaf). Context
// binding and EXPLAIN both walk the tree with it, so neither needs to know
// every node kind.
func Children(op Operator) []Operator {
	switch o := op.(type) {
	case interface{ Children() []Operator }:
		return o.Children()
	case interface{ Child() Operator }:
		return []Operator{o.Child()}
	}
	return nil
}
