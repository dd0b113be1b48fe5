package core

import (
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// Joins over *derived* relations produce lineages that share base events
// across the two inputs, so output formulas are no longer read-once and
// probability computation must fall back to Shannon expansion. These
// tests exercise that end-to-end path.

func TestJoinOverDerivedRelations(t *testing.T) {
	a, b := paperA(), paperB()
	q := Join(tp.OpLeft, a, b, theta) // derived: lineages over {a*, b*}

	// Join the result with b again on Loc (columns: q.Loc is index 1).
	q2 := Join(tp.OpInner, q, b, tp.Equi(1, 1))
	if q2.Len() == 0 {
		t.Fatalf("derived join is empty")
	}
	if err := oracle.PointWise(tp.RefJoin(tp.OpInner, q, b, tp.Equi(1, 1)), q2); err != nil {
		t.Fatalf("derived inner join differs from reference: %v", err)
	}
}

func TestDerivedAntiJoinSharedEvents(t *testing.T) {
	// r' = a ▷ b (lineages mention b negatively), then r' ▷ b again:
	// lineages like (a1 ∧ ¬b3) ∧ ¬(b3 ∨ b2) share b3 — not read-once.
	a, b := paperA(), paperB()
	r1 := Join(tp.OpAnti, a, b, theta)
	r2 := Join(tp.OpAnti, r1, b, theta)
	if err := oracle.PointWise(tp.RefJoin(tp.OpAnti, r1, b, theta), r2); err != nil {
		t.Fatalf("derived anti join differs from reference: %v", err)
	}
	// The shared-event probability must differ from the independence
	// assumption: verify at one point via direct computation.
	// At t=4: r1 has (Ann, a1∧¬b3) valid; matching b tuple is b3 ([4,6)).
	// Output lineage: (a1∧¬b3) ∧ ¬b3 ≡ a1∧¬b3, prob 0.7·0.3 = 0.21 — NOT
	// 0.21·0.3 as independence would give.
	annKey := tp.Strings("Ann", "ZAK").Key()
	pm, _ := tp.Expand(r2)
	row, ok := pm[annKey][4]
	if !ok {
		t.Fatalf("missing Ann at t=4 in %v", r2)
	}
	if d := row.Prob - 0.21; d < -1e-9 || d > 1e-9 {
		t.Errorf("shared-event probability = %g, want 0.21 (idempotent ¬b3)", row.Prob)
	}
}

func TestDerivedJoinTriggersShannon(t *testing.T) {
	// Confirm the Shannon path actually fires on a shared-event join (the
	// read-once fast path would silently give wrong numbers otherwise).
	// Anti-joining a left-outer result against b produces lineages like
	// (a1 ∧ b3) ∧ ¬(b3 ∨ b2), which genuinely share b3 across subformulas.
	// (Plain anti-over-anti chains simplify back to read-once form via
	// operand deduplication, so they do NOT need Shannon — also asserted.)
	a, b := paperA(), paperB()
	q := Join(tp.OpLeft, a, b, theta)
	probs := tp.MergeProbs(q, b)
	ev := prob.NewBatchEvaluator(probs)
	for _, tu := range Join(tp.OpAnti, q, b, tp.Equi(1, 1)).Tuples {
		ev.Prob(tu.Lineage)
	}
	if ev.ShannonSteps() == 0 {
		t.Errorf("expected Shannon expansion on shared-event lineages")
	}

	r1 := Join(tp.OpAnti, a, b, theta)
	ev2 := prob.NewBatchEvaluator(tp.MergeProbs(r1, b))
	for _, tu := range Join(tp.OpAnti, r1, b, theta).Tuples {
		ev2.Prob(tu.Lineage)
	}
	if ev2.ShannonSteps() != 0 {
		t.Errorf("anti-over-anti lineages simplify to read-once; Shannon should not fire")
	}
}

func TestSelfJoin(t *testing.T) {
	// a ⟕ a on Loc: every tuple matches itself; lineage a1 ∧ a1 = a1.
	a := paperA()
	q := Join(tp.OpLeft, a, a.Clone(), tp.Equi(1, 1))
	if err := oracle.PointWise(tp.RefJoin(tp.OpLeft, a, a.Clone(), tp.Equi(1, 1)), q); err != nil {
		t.Fatalf("self join differs from reference: %v", err)
	}
	// The pairing (Ann, Ann) over [2,8) must have probability 0.7, not 0.49.
	pairKey := tp.Strings("Ann", "ZAK").Concat(tp.Strings("Ann", "ZAK")).Key()
	pm, _ := tp.Expand(q)
	row, ok := pm[pairKey][3]
	if !ok {
		t.Fatalf("missing self pairing")
	}
	if d := row.Prob - 0.7; d < -1e-9 || d > 1e-9 {
		t.Errorf("self-pair probability = %g, want 0.7 (a1 ∧ a1 ≡ a1)", row.Prob)
	}
}

func TestChainedJoinsLongPipeline(t *testing.T) {
	// Three-way chain through the streaming API: ((a ⟕ b) ▷ b) ∩-style
	// inner with a — mixing operators across derived inputs.
	a, b := paperA(), paperB()
	step1 := Join(tp.OpLeft, a, b, theta)
	step2 := Join(tp.OpAnti, step1, b, tp.Equi(1, 1))
	step3 := Join(tp.OpInner, step2, a, tp.Equi(1, 1))
	if err := oracle.PointWise(tp.RefJoin(tp.OpInner, step2, a, tp.Equi(1, 1)), step3); err != nil {
		t.Fatalf("three-way chain differs from reference: %v", err)
	}
}

func TestIntervalClipsThroughChain(t *testing.T) {
	// Output intervals of chained joins stay within the original tuples'.
	a, b := paperA(), paperB()
	q := Join(tp.OpFull, Join(tp.OpLeft, a, b, theta), b, tp.Equi(1, 1))
	horizon := interval.New(1, 10)
	for _, tu := range q.Tuples {
		if !horizon.ContainsInterval(tu.T) {
			t.Errorf("interval %v escapes the data horizon", tu.T)
		}
	}
}
