// Package setops implements temporal-probabilistic set operations —
// union, intersection and difference — as instances of the generalized
// lineage-aware temporal window framework, following the companion paper
// the authors build on (Papaioannou, Theobald, Böhlen: "Supporting Set
// Operations in Temporal-Probabilistic Databases", ICDE 2018, reference
// [1] of the reproduced paper).
//
// Set operations are TP joins whose θ is equality on *all* non-temporal
// attributes (the two relations must be union-compatible), so they run as
// rows of internal/core's operator table — the same window pipelines,
// tuple tail, probability batches, cancellation checks and memory-budget
// charges as the joins:
//
//	r ∪Tp s : overlapping windows → λr ∨ λs,
//	          unmatched windows of either side → that side's lineage;
//	r ∩Tp s : overlapping windows → λr ∧ λs;
//	r −Tp s : the TP anti join with full-fact equality —
//	          unmatched → λr, negating → λr ∧ ¬λs.
//
// Under the sequenced-TP constraint at most one tuple per fact is valid
// at any time point on each side, so the window sets are disjoint per
// fact and the results are valid sequenced-TP relations.
package setops

import (
	"context"
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/tp"
)

// allTheta builds the full-fact equality condition for two
// union-compatible relations.
func allTheta(r, s *tp.Relation) (tp.EquiTheta, error) {
	if r.Arity() != s.Arity() {
		return tp.EquiTheta{}, fmt.Errorf(
			"setops: relations %s(%d attrs) and %s(%d attrs) are not union-compatible",
			r.Name, r.Arity(), s.Name, s.Arity())
	}
	eq := tp.EquiTheta{RCols: make([]int, r.Arity()), SCols: make([]int, s.Arity())}
	for i := range eq.RCols {
		eq.RCols[i] = i
		eq.SCols[i] = i
	}
	return eq, nil
}

// Union computes r ∪Tp s: at each time point, a fact is true when it is
// true in either input.
func Union(ctx context.Context, r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	return core.Union(ctx, r, s, theta)
}

// Intersect computes r ∩Tp s: a fact is true when it is true in both
// inputs.
func Intersect(ctx context.Context, r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	return core.Intersect(ctx, r, s, theta)
}

// Difference computes r −Tp s: at each time point the probability that
// the fact is true in r and not true in s. It is exactly the TP anti join
// with full-fact equality.
func Difference(ctx context.Context, r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	out, err := core.JoinContext(ctx, tp.OpAnti, r, s, theta)
	if err != nil {
		return nil, err
	}
	out.Name = fmt.Sprintf("%s_minus_%s", r.Name, s.Name)
	return out, nil
}
