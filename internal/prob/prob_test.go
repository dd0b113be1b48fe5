package prob

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tpjoin/internal/lineage"
)

func v(rel string, id int) *lineage.Expr { return lineage.NewVar(rel, id) }

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestConstantsAndLiterals(t *testing.T) {
	ev := NewBatchEvaluator(Probs{{Rel: "a", ID: 1}: 0.7})
	approx(t, ev.Prob(lineage.False()), 0, 0, "Pr(⊥)")
	approx(t, ev.Prob(lineage.True()), 1, 0, "Pr(⊤)")
	approx(t, ev.Prob(v("a", 1)), 0.7, 0, "Pr(a1)")
	approx(t, ev.Prob(lineage.Not(v("a", 1))), 0.3, 1e-15, "Pr(¬a1)")
}

func TestPaperExampleProbabilities(t *testing.T) {
	// Base probabilities from Fig. 1a.
	probs := Probs{
		{Rel: "a", ID: 1}: 0.7, {Rel: "a", ID: 2}: 0.8,
		{Rel: "b", ID: 1}: 0.9, {Rel: "b", ID: 2}: 0.6, {Rel: "b", ID: 3}: 0.7,
	}
	ev := NewBatchEvaluator(probs)
	a1, a2 := v("a", 1), v("a", 2)
	b2, b3 := v("b", 2), v("b", 3)

	// The seven output probabilities of Fig. 1b.
	approx(t, ev.Prob(a1), 0.70, 1e-12, "a1")
	approx(t, ev.Prob(lineage.And(a1, b3)), 0.49, 1e-12, "a1∧b3")
	approx(t, ev.Prob(lineage.And(a1, b2)), 0.42, 1e-12, "a1∧b2")
	approx(t, ev.Prob(lineage.AndNot(a1, b3)), 0.21, 1e-12, "a1∧¬b3")
	approx(t, ev.Prob(lineage.AndNot(a1, lineage.Or(b3, b2))), 0.084, 1e-12, "a1∧¬(b3∨b2)")
	approx(t, ev.Prob(lineage.AndNot(a1, b2)), 0.28, 1e-12, "a1∧¬b2")
	approx(t, ev.Prob(a2), 0.80, 1e-12, "a2")

	if ev.ShannonSteps() != 0 {
		t.Errorf("read-once formulas must not trigger Shannon expansion, got %d steps",
			ev.ShannonSteps())
	}
}

func TestIndependentDecomposition(t *testing.T) {
	probs := Probs{
		{Rel: "x", ID: 1}: 0.5, {Rel: "x", ID: 2}: 0.5,
		{Rel: "y", ID: 1}: 0.25, {Rel: "y", ID: 2}: 0.75,
	}
	ev := NewBatchEvaluator(probs)
	e := lineage.And(
		lineage.Or(v("x", 1), v("x", 2)),
		lineage.Or(v("y", 1), v("y", 2)),
	)
	// (1-(0.5·0.5)) · (1-(0.75·0.25)) = 0.75 · 0.8125
	approx(t, ev.Prob(e), 0.75*0.8125, 1e-12, "independent AND of ORs")
	if ev.ShannonSteps() != 0 {
		t.Errorf("variable-disjoint children must not trigger Shannon, got %d",
			ev.ShannonSteps())
	}
}

func TestSharedVariableNeedsShannon(t *testing.T) {
	// (x ∧ y) ∨ (x ∧ z): not read-once in this form, needs expansion on x.
	probs := Probs{
		{Rel: "v", ID: 1}: 0.5, {Rel: "v", ID: 2}: 0.5, {Rel: "v", ID: 3}: 0.5,
	}
	x, y, z := v("v", 1), v("v", 2), v("v", 3)
	e := lineage.Or(lineage.And(x, y), lineage.And(x, z))
	ev := NewBatchEvaluator(probs)
	got := ev.Prob(e)
	want := Enumerate(e, probs) // 0.5 * (1 - 0.25) = 0.375
	approx(t, got, want, 1e-12, "shared-variable Or")
	approx(t, got, 0.375, 1e-12, "shared-variable Or closed form")
	if ev.ShannonSteps() == 0 {
		t.Errorf("expected at least one Shannon step")
	}
}

func TestXorStyleFormula(t *testing.T) {
	// (x ∧ ¬y) ∨ (¬x ∧ y) with p(x)=0.3, p(y)=0.6 → 0.3·0.4 + 0.7·0.6 = 0.54
	probs := Probs{{Rel: "v", ID: 1}: 0.3, {Rel: "v", ID: 2}: 0.6}
	x, y := v("v", 1), v("v", 2)
	e := lineage.Or(
		lineage.And(x, lineage.Not(y)),
		lineage.And(lineage.Not(x), y),
	)
	ev := NewBatchEvaluator(probs)
	approx(t, ev.Prob(e), 0.54, 1e-12, "xor")
}

// againstEnumeration checks the evaluator against the 2^n oracle on
// seeded random formulas over five variables (shared variables are the
// norm there: independent groups and Shannon expansion).
func againstEnumeration(t *testing.T, seed int64, trials, depth int) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		e := randExpr(rng, depth)
		probs := make(Probs)
		for _, vr := range e.Vars() {
			probs[vr] = rng.Float64()
		}
		got := NewBatchEvaluator(probs).Prob(e)
		want := Enumerate(e, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Prob(%v) = %g, enumeration = %g", trial, e, got, want)
		}
		if got < -1e-12 || got > 1+1e-12 {
			t.Fatalf("trial %d: probability out of range: %g", trial, got)
		}
	}
}

func TestEvaluatorAgainstEnumeration(t *testing.T) { againstEnumeration(t, 99, 400, 3) }

func TestBatchEvaluatorAgainstEnumeration(t *testing.T) { againstEnumeration(t, 77, 200, 4) }

func TestMemoizationAcrossCalls(t *testing.T) {
	probs := Probs{{Rel: "v", ID: 1}: 0.5, {Rel: "v", ID: 2}: 0.5, {Rel: "v", ID: 3}: 0.5}
	x, y, z := v("v", 1), v("v", 2), v("v", 3)
	e := lineage.Or(lineage.And(x, y), lineage.And(x, z), lineage.And(y, z))
	ev := NewBatchEvaluator(probs)
	p1 := ev.Prob(e)
	steps := ev.ShannonSteps()
	p2 := ev.Prob(e)
	if p1 != p2 {
		t.Errorf("memoized result differs: %g vs %g", p1, p2)
	}
	if ev.ShannonSteps() != steps {
		t.Errorf("second call must hit the memo (steps %d → %d)", steps, ev.ShannonSteps())
	}
}

func TestPanicsOnMissingProbability(t *testing.T) {
	ev := NewBatchEvaluator(Probs{})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on unknown base event")
		}
	}()
	ev.Prob(v("a", 1))
}

func TestPanicsOnNil(t *testing.T) {
	ev := NewBatchEvaluator(Probs{})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on nil lineage")
		}
	}()
	ev.Prob(nil)
}

func TestProbsClone(t *testing.T) {
	p := Probs{{Rel: "a", ID: 1}: 0.5}
	q := p.Clone()
	q[lineage.Var{Rel: "a", ID: 1}] = 0.9
	if p[lineage.Var{Rel: "a", ID: 1}] != 0.5 {
		t.Errorf("Clone must not alias")
	}
}

func TestEnumerateZeroVars(t *testing.T) {
	approx(t, Enumerate(lineage.True(), Probs{}), 1, 0, "enumerate ⊤")
	approx(t, Enumerate(lineage.False(), Probs{}), 0, 0, "enumerate ⊥")
}

func randExpr(rng *rand.Rand, depth int) *lineage.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return lineage.NewVar("v", 1+rng.Intn(5))
	}
	switch rng.Intn(3) {
	case 0:
		return lineage.Not(randExpr(rng, depth-1))
	case 1:
		return lineage.And(randExpr(rng, depth-1), randExpr(rng, depth-1), randExpr(rng, depth-1))
	default:
		return lineage.Or(randExpr(rng, depth-1), randExpr(rng, depth-1))
	}
}

// TestBatchEvaluatorReadOnceChain exercises the fast path on the
// chain-shaped read-once lineages TP joins produce and checks the memo
// counters: re-evaluating the same batch must answer from the memo.
func TestBatchEvaluatorReadOnceChain(t *testing.T) {
	probs := make(Probs)
	var es []*lineage.Expr
	for i := 0; i < 64; i++ {
		a := lineage.NewVar("a", i)
		b1 := lineage.NewVar("b", 2*i)
		b2 := lineage.NewVar("b", 2*i+1)
		probs[lineage.Var{Rel: "a", ID: i}] = 0.7
		probs[lineage.Var{Rel: "b", ID: 2 * i}] = 0.4
		probs[lineage.Var{Rel: "b", ID: 2*i + 1}] = 0.9
		es = append(es, lineage.AndNot(a, lineage.Or(b1, b2)))
	}
	bev := NewBatchEvaluator(probs)
	out := make([]float64, len(es))
	bev.EvalBatch(es, out)
	want := 0.7 * (1 - (1 - 0.6*0.1)) // a ∧ ¬(b1 ∨ b2)
	for i, p := range out {
		if math.Abs(p-want) > 1e-12 {
			t.Fatalf("row %d: got %v, want %v", i, p, want)
		}
	}
	if bev.Batches() != 1 {
		t.Errorf("Batches() = %d, want 1", bev.Batches())
	}
	if bev.ShannonSteps() != 0 {
		t.Errorf("read-once batch must not trigger Shannon, got %d steps", bev.ShannonSteps())
	}
	hits := bev.MemoHits()
	bev.EvalBatch(es, out)
	if bev.MemoHits() <= hits {
		t.Errorf("re-evaluating the batch must hit the memo (hits %d → %d)", hits, bev.MemoHits())
	}
	if bev.Batches() != 2 {
		t.Errorf("Batches() = %d, want 2", bev.Batches())
	}
}

// TestBatchEvaluatorAgainstBDD cross-checks the evaluator against
// the independent BDD engine.
func TestBatchEvaluatorAgainstBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 100; trial++ {
		e := randExpr(rng, 3)
		probs := make(Probs)
		for _, vr := range e.Vars() {
			probs[vr] = rng.Float64()
		}
		got := NewBatchEvaluator(probs).Prob(e)
		want := CompileBDD(e).Prob(probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: batch %g vs BDD %g for %v", trial, got, want, e)
		}
	}
}

func TestEvalBatchPanicsOnNil(t *testing.T) {
	bev := NewBatchEvaluator(Probs{})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on nil lineage in a batch")
		}
	}()
	bev.EvalBatch([]*lineage.Expr{nil}, make([]float64, 1))
}

func TestEvalBatchPanicsOnShortOutput(t *testing.T) {
	bev := NewBatchEvaluator(Probs{})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on short output slice")
		}
	}()
	bev.EvalBatch([]*lineage.Expr{lineage.True(), lineage.True()}, make([]float64, 1))
}

// TestEvalBatchAllocsSteadyState: once the memo holds a batch's distinct
// sub-lineages, re-evaluating allocates nothing — the independence check
// runs on the generation-stamped scratch, not fresh sets.
func TestEvalBatchAllocsSteadyState(t *testing.T) {
	probs := make(Probs)
	var es []*lineage.Expr
	for i := 0; i < 32; i++ {
		probs[lineage.Var{Rel: "a", ID: i}] = 0.5
		probs[lineage.Var{Rel: "b", ID: i}] = 0.25
		es = append(es, lineage.And(lineage.NewVar("a", i), lineage.NewVar("b", i)))
	}
	bev := NewBatchEvaluator(probs)
	out := make([]float64, len(es))
	bev.EvalBatch(es, out) // populate the memo
	allocs := testing.AllocsPerRun(20, func() {
		bev.EvalBatch(es, out)
	})
	if allocs > 0 {
		t.Errorf("steady-state EvalBatch allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkEvalBatchReadOnce(b *testing.B) {
	probs := make(Probs)
	var es []*lineage.Expr
	for i := 0; i < 256; i++ {
		probs[lineage.Var{Rel: "a", ID: i}] = 0.7
		probs[lineage.Var{Rel: "b", ID: i}] = 0.4
		probs[lineage.Var{Rel: "b", ID: i + 1000}] = 0.9
		es = append(es, lineage.AndNot(lineage.NewVar("a", i),
			lineage.Or(lineage.NewVar("b", i), lineage.NewVar("b", i+1000))))
	}
	out := make([]float64, len(es))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bev := NewBatchEvaluator(probs)
		bev.EvalBatch(es, out)
	}
}

// memoWalk is an instrumented walk over the nodes the evaluator meets:
// the same descent (independent groups, else the two cofactors of the
// most frequent variable) with its own list of finished ∧/∨ nodes, so it
// counts memo answers without reading the evaluator's counter.
type memoWalk struct {
	grouper *BatchEvaluator // its partition only; never evaluates
	done    []*lineage.Expr
	hits    int64
}

func (w *memoWalk) walk(e *lineage.Expr) {
	switch e.Kind() {
	case lineage.KindFalse, lineage.KindTrue, lineage.KindVar:
		return
	case lineage.KindNot:
		w.walk(e.Operands()[0])
		return
	}
	for _, d := range w.done {
		if d.Equal(e) {
			w.hits++
			return
		}
	}
	if parts, n := e.Operands(), w.grouper.partition(e.Operands()); n > 1 {
		if n < len(parts) {
			parts = w.grouper.parts(e.Kind(), parts, n)
		}
		for _, k := range parts {
			w.walk(k)
		}
	} else {
		v := mostFrequentVar(e)
		w.walk(e.Restrict(v, true))
		w.walk(e.Restrict(v, false))
	}
	w.done = append(w.done, e)
}

// TestMemoHitsCountsEveryMemoAnswer: MemoHits is the memo-hits line of
// EXPLAIN ANALYZE, so it must count every sub-lineage answered from the
// memo — also the ones below a shared-variable node, which an evaluator
// that leaves its counting path for Shannon expansion misses.
func TestMemoHitsCountsEveryMemoAnswer(t *testing.T) {
	var total int64
	for _, set := range goldenSets() {
		if !strings.HasPrefix(set.name, "shared/") && !strings.HasPrefix(set.name, "dnf/") &&
			!strings.HasPrefix(set.name, "mixed/") && !strings.HasPrefix(set.name, "rejoin/") {
			continue
		}
		ev := NewBatchEvaluator(set.probs)
		ev.EvalBatch(set.es, make([]float64, len(set.es)))
		w := memoWalk{grouper: NewBatchEvaluator(nil)}
		for _, e := range set.es {
			w.walk(e)
		}
		if ev.MemoHits() != w.hits {
			t.Errorf("%s: MemoHits() = %d, instrumented walk counts %d memo answers (%d Shannon steps)",
				set.name, ev.MemoHits(), w.hits, ev.ShannonSteps())
		}
		total += w.hits
	}
	if total == 0 {
		t.Fatalf("corpus never hits the memo; the test checks nothing")
	}
}

// TestReadOnceBelowSharedRootAllocs: a read-once sub-formula below a
// shared-variable root goes through the stamped disjointness check like
// any other, so a level of it costs its memo entry and not a union-find
// with per-operand variable sets.
func TestReadOnceBelowSharedRootAllocs(t *testing.T) {
	probs := Probs{{Rel: "x", ID: 1}: 0.5, {Rel: "x", ID: 2}: 0.5, {Rel: "x", ID: 3}: 0.5}
	x, y, z := v("x", 1), v("x", 2), v("x", 3)
	allocs := func(levels int) float64 {
		chain := lineage.NewVar("a", 0)
		probs[lineage.Var{Rel: "a", ID: 0}] = 0.5
		for l := 1; l <= levels; l++ {
			probs[lineage.Var{Rel: "a", ID: l}] = 0.5
			probs[lineage.Var{Rel: "b", ID: l}] = 0.5
			chain = lineage.AndNot(lineage.Or(chain, lineage.NewVar("a", l)), lineage.NewVar("b", l))
		}
		root := lineage.Or(lineage.And(x, y), lineage.And(x, z), chain)
		return testing.AllocsPerRun(20, func() {
			ev := NewBatchEvaluator(probs)
			if ev.Prob(root); ev.ShannonSteps() == 0 {
				t.Fatalf("root must need Shannon expansion")
			}
		})
	}
	const lo, hi = 10, 50
	perLevel := (allocs(hi) - allocs(lo)) / (hi - lo)
	// Each level is two ∧/∨ nodes: two memo entries plus map growth.
	if perLevel > 6 {
		t.Errorf("a read-once level below a shared-variable root allocates %.1f objects, want <= 6", perLevel)
	}
}
