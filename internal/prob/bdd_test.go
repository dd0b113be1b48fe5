package prob

import (
	"math"
	"math/rand"
	"testing"

	"tpjoin/internal/lineage"
)

func TestBDDConstants(t *testing.T) {
	if !CompileBDD(lineage.True()).Tautology() {
		t.Errorf("⊤ must compile to the ⊤ terminal")
	}
	if !CompileBDD(lineage.False()).Unsatisfiable() {
		t.Errorf("⊥ must compile to the ⊥ terminal")
	}
	x := v("a", 1)
	b := CompileBDD(lineage.Or(x, lineage.Not(x)))
	if !b.Tautology() {
		t.Errorf("x ∨ ¬x must reduce to ⊤, size %d", b.Size())
	}
	b = CompileBDD(lineage.And(x, lineage.Not(x)))
	if !b.Unsatisfiable() {
		t.Errorf("x ∧ ¬x must reduce to ⊥")
	}
}

func TestBDDPaperLineage(t *testing.T) {
	a1 := v("a", 1)
	b2, b3 := v("b", 2), v("b", 3)
	e := lineage.AndNot(a1, lineage.Or(b3, b2))
	bdd := CompileBDD(e)
	probs := Probs{
		{Rel: "a", ID: 1}: 0.7, {Rel: "b", ID: 2}: 0.6, {Rel: "b", ID: 3}: 0.7,
	}
	if got := bdd.Prob(probs); math.Abs(got-0.084) > 1e-12 {
		t.Errorf("BDD prob = %g, want 0.084", got)
	}
	// Read-once formula over 3 variables: BDD has ≤ 3 internal nodes + 2
	// terminals.
	if bdd.Size() > 5 {
		t.Errorf("read-once BDD unexpectedly large: %d nodes", bdd.Size())
	}
	if len(bdd.Vars()) != 3 {
		t.Errorf("vars = %v", bdd.Vars())
	}
}

func TestBDDAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		e := randExpr(rng, 3)
		probs := make(Probs)
		for _, vr := range e.Vars() {
			probs[vr] = rng.Float64()
		}
		bdd := CompileBDD(e)
		got := bdd.Prob(probs)
		want := Enumerate(e, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: BDD prob %g, enumeration %g for %v", trial, got, want, e)
		}
		// Shannon evaluator and BDD must agree too.
		ev := NewBatchEvaluator(probs)
		if s := ev.Prob(e); math.Abs(got-s) > 1e-9 {
			t.Fatalf("trial %d: BDD %g vs Shannon %g for %v", trial, got, s, e)
		}
	}
}

func TestBDDEvalAgainstExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		e := randExpr(rng, 3)
		bdd := CompileBDD(e)
		vars := e.Vars()
		assign := make(map[lineage.Var]bool)
		for i := 0; i < 20; i++ {
			for _, vr := range vars {
				assign[vr] = rng.Intn(2) == 1
			}
			if bdd.Eval(assign) != e.Eval(assign) {
				t.Fatalf("trial %d: BDD eval disagrees on %v under %v", trial, e, assign)
			}
		}
	}
}

func TestBDDCanonicity(t *testing.T) {
	// Equivalent formulas must compile to identical root structure
	// (checked via Tautology of the XNOR... simpler: equal Prob under
	// many random probability assignments AND equal size for De Morgan
	// pairs compiled under the same variable order).
	x, y := v("a", 1), v("a", 2)
	e1 := lineage.Not(lineage.And(x, y))
	e2 := lineage.Or(lineage.Not(x), lineage.Not(y))
	b1, b2 := CompileBDD(e1), CompileBDD(e2)
	if b1.Size() != b2.Size() {
		t.Errorf("De Morgan twins compiled to different sizes: %d vs %d", b1.Size(), b2.Size())
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		probs := Probs{{Rel: "a", ID: 1}: rng.Float64(), {Rel: "a", ID: 2}: rng.Float64()}
		if math.Abs(b1.Prob(probs)-b2.Prob(probs)) > 1e-12 {
			t.Fatalf("De Morgan twins disagree")
		}
	}
}

func TestBDDSharedVariable(t *testing.T) {
	// (x∧y) ∨ (x∧z): BDD handles the shared variable exactly.
	probs := Probs{
		{Rel: "v", ID: 1}: 0.5, {Rel: "v", ID: 2}: 0.5, {Rel: "v", ID: 3}: 0.5,
	}
	x, y, z := v("v", 1), v("v", 2), v("v", 3)
	e := lineage.Or(lineage.And(x, y), lineage.And(x, z))
	if got := CompileBDD(e).Prob(probs); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("BDD prob = %g, want 0.375", got)
	}
}

func TestBDDPanicsOnMissingProb(t *testing.T) {
	bdd := CompileBDD(v("a", 1))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	bdd.Prob(Probs{})
}

func TestBDDRepeatedProbCalls(t *testing.T) {
	// Compiling once and evaluating under different probabilities is the
	// BDD's use case; results must track the probabilities.
	x, y := v("a", 1), v("a", 2)
	bdd := CompileBDD(lineage.Or(x, y))
	p1 := bdd.Prob(Probs{{Rel: "a", ID: 1}: 0.5, {Rel: "a", ID: 2}: 0.5})
	p2 := bdd.Prob(Probs{{Rel: "a", ID: 1}: 0.9, {Rel: "a", ID: 2}: 0.9})
	if math.Abs(p1-0.75) > 1e-12 || math.Abs(p2-0.99) > 1e-12 {
		t.Errorf("repeated Prob wrong: %g, %g", p1, p2)
	}
}
