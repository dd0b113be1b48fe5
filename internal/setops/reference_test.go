package setops

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/mem"
	"tpjoin/internal/oracle"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// referenceUnion and referenceIntersect are the hand-written window loops
// Union and Intersect ran before they became rows of core's operator
// table, kept as the byte-identity reference: one window at a time, a
// Prob call per tuple, the lineage concatenation spelled out per class.

func referenceUnion(r, s *tp.Relation) *tp.Relation {
	theta, _ := allTheta(r, s)
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_union_%s", r.Name, s.Name),
		Attrs: append([]string(nil), r.Attrs...),
		Probs: tp.MergeProbs(r, s),
	}
	ev := prob.NewBatchEvaluator(out.Probs)

	// Forward pass: overlapping windows (λr ∨ λs) and r's unmatched (λr).
	for _, w := range core.Drain(core.LAWAU(core.OverlapJoin(r, s, theta))) {
		switch w.Class() {
		case window.Overlapping:
			lam := lineage.Or(w.Lr, w.Ls)
			out.AppendDerived(w.Fr, lam, w.T, ev.Prob(lam))
		case window.Unmatched:
			out.AppendDerived(w.Fr, w.Lr, w.T, ev.Prob(w.Lr))
		}
	}
	// Backward pass: s's unmatched windows (λs).
	for _, w := range core.Drain(core.LAWAU(core.OverlapJoin(s, r, tp.Swap(theta)))) {
		if w.Class() == window.Unmatched {
			out.AppendDerived(w.Fr, w.Lr, w.T, ev.Prob(w.Lr))
		}
	}
	return out
}

func referenceIntersect(r, s *tp.Relation) *tp.Relation {
	theta, _ := allTheta(r, s)
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_intersect_%s", r.Name, s.Name),
		Attrs: append([]string(nil), r.Attrs...),
		Probs: tp.MergeProbs(r, s),
	}
	ev := prob.NewBatchEvaluator(out.Probs)
	for _, w := range core.Drain(core.OverlapJoin(r, s, theta)) {
		if w.Class() != window.Overlapping {
			continue
		}
		lam := lineage.And(w.Lr, w.Ls)
		out.AppendDerived(w.Fr, lam, w.T, ev.Prob(lam))
	}
	return out
}

// requireByteIdentical compares the names, then schema, tuple order,
// facts, intervals, lineage trees and probability bits (oracle.Same).
func requireByteIdentical(t *testing.T, label string, got, want *tp.Relation) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: result is %s, want %s", label, got.Name, want.Name)
	}
	if err := oracle.Same(want, got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestSetOpsByteIdenticalToReference: ∪ and ∩ through core's operator
// table reproduce the former hand-written loops byte for byte — tuple
// order (forward phase, then mirror), lineage strings and bit-equal
// probabilities — and − is exactly the anti join, on the paper's Fig. 1a
// relations and both evaluation workloads, self-operations included.
func TestSetOpsByteIdenticalToReference(t *testing.T) {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	wr, ws := dataset.Webkit(600, 7)
	mr, ms := dataset.Meteo(400, 7)
	for _, in := range []struct {
		name string
		r, s *tp.Relation
	}{
		{"fig1a", a, b}, {"fig1a/self", a, a},
		{"webkit", wr, ws}, {"webkit/self", wr, wr},
		{"meteo", mr, ms}, {"meteo/self", ms, ms},
	} {
		u, err := Union(ctx, in.r, in.s)
		if err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, in.name+" ∪", u, referenceUnion(in.r, in.s))
		x, err := Intersect(ctx, in.r, in.s)
		if err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, in.name+" ∩", x, referenceIntersect(in.r, in.s))
		d, err := Difference(ctx, in.r, in.s)
		if err != nil {
			t.Fatal(err)
		}
		theta, _ := allTheta(in.r, in.s)
		anti := core.Join(tp.OpAnti, in.r, in.s, theta)
		anti.Name = d.Name
		requireByteIdentical(t, in.name+" −", d, anti)
	}
}

// TestSetOpsObserveContextAndBudget: the three operations run under the
// query context — a cancelled one stops them, a memory budget on it is
// charged for the pipeline buffers and the rows they materialize.
func TestSetOpsObserveContextAndBudget(t *testing.T) {
	r, s := dataset.Webkit(600, 7)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for name, op := range map[string]func(context.Context, *tp.Relation, *tp.Relation) (*tp.Relation, error){
		"∪": Union, "∩": Intersect, "−": Difference,
	} {
		if _, err := op(cancelled, r, s); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", name, err)
		}
		if _, err := op(mem.WithGauge(ctx, mem.NewGauge(1<<10)), r, s); !mem.IsBudget(err) {
			t.Errorf("%s under a 1 KiB budget: err = %v, want a budget error", name, err)
		}
	}
}
