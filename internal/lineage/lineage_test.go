package lineage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func v(rel string, id int) *Expr { return NewVar(rel, id) }

func TestVarString(t *testing.T) {
	if got := (Var{Rel: "a", ID: 1}).String(); got != "a1" {
		t.Errorf("Var.String = %q, want a1", got)
	}
	if got := v("b", 3).String(); got != "b3" {
		t.Errorf("Expr.String = %q, want b3", got)
	}
}

func TestVarLess(t *testing.T) {
	a1, a2, b1 := Var{"a", 1}, Var{"a", 2}, Var{"b", 1}
	if !a1.Less(a2) || !a1.Less(b1) || !a2.Less(b1) {
		t.Errorf("Var.Less ordering wrong")
	}
	if a2.Less(a1) || b1.Less(a1) {
		t.Errorf("Var.Less not antisymmetric")
	}
}

func TestConstants(t *testing.T) {
	if False().Kind() != KindFalse || True().Kind() != KindTrue {
		t.Errorf("constant kinds wrong: %v %v", False().Kind(), True().Kind())
	}
	if False().String() != "⊥" || True().String() != "⊤" {
		t.Errorf("constant rendering wrong: %q %q", False(), True())
	}
}

func TestNotSimplification(t *testing.T) {
	if Not(True()) != False() || Not(False()) != True() {
		t.Errorf("Not of constants wrong")
	}
	x := v("a", 1)
	if Not(Not(x)) != x {
		t.Errorf("double negation not eliminated")
	}
	if got := Not(x).String(); got != "¬a1" {
		t.Errorf("Not render = %q", got)
	}
}

func TestAndSimplification(t *testing.T) {
	x, y := v("a", 1), v("b", 2)
	if And() != True() {
		t.Errorf("empty And should be True")
	}
	if And(x) != x {
		t.Errorf("unary And should be the operand")
	}
	if And(x, True()) != x {
		t.Errorf("And identity not dropped")
	}
	if And(x, False()) != False() {
		t.Errorf("And annihilator not applied")
	}
	if got := And(x, x); got != x {
		t.Errorf("duplicate And operand kept: %v", got)
	}
	if got := And(And(x, y), v("c", 3)).String(); got != "a1 ∧ b2 ∧ c3" {
		t.Errorf("And flattening: %q", got)
	}
}

func TestOrSimplification(t *testing.T) {
	x, y := v("a", 1), v("b", 2)
	if Or() != False() {
		t.Errorf("empty Or should be False")
	}
	if Or(x) != x {
		t.Errorf("unary Or should be the operand")
	}
	if Or(x, False()) != x {
		t.Errorf("Or identity not dropped")
	}
	if Or(x, True()) != True() {
		t.Errorf("Or annihilator not applied")
	}
	if got := Or(Or(x, y), x); got.Kind() != KindOr || len(got.Operands()) != 2 {
		t.Errorf("Or dedup/flatten failed: %v", got)
	}
}

func TestAndNot(t *testing.T) {
	a1, b2, b3 := v("a", 1), v("b", 2), v("b", 3)
	got := AndNot(a1, Or(b3, b2))
	if got.String() != "a1 ∧ ¬(b3 ∨ b2)" {
		t.Errorf("AndNot render = %q, want paper form a1 ∧ ¬(b3 ∨ b2)", got)
	}
	if AndNot(a1, nil) != a1 {
		t.Errorf("AndNot with null should pass through λr")
	}
}

func TestPaperLineages(t *testing.T) {
	// All lineages of Fig. 1b must print in the paper's form.
	a1, a2 := v("a", 1), v("a", 2)
	b2, b3 := v("b", 2), v("b", 3)
	cases := []struct {
		e    *Expr
		want string
	}{
		{a1, "a1"},
		{And(a1, b3), "a1 ∧ b3"},
		{And(a1, b2), "a1 ∧ b2"},
		{AndNot(a1, b3), "a1 ∧ ¬b3"},
		{AndNot(a1, Or(b3, b2)), "a1 ∧ ¬(b3 ∨ b2)"},
		{AndNot(a1, b2), "a1 ∧ ¬b2"},
		{a2, "a2"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestRenderPrecedence(t *testing.T) {
	x, y, z := v("a", 1), v("b", 2), v("c", 3)
	if got := Or(And(x, y), z).String(); got != "a1 ∧ b2 ∨ c3" {
		t.Errorf("got %q", got)
	}
	if got := And(Or(x, y), z).String(); got != "(a1 ∨ b2) ∧ c3" {
		t.Errorf("got %q", got)
	}
	if got := Not(And(x, y)).String(); got != "¬(a1 ∧ b2)" {
		t.Errorf("got %q", got)
	}
}

func TestEqualMultiset(t *testing.T) {
	x, y, z := v("a", 1), v("b", 2), v("c", 3)
	if !Or(x, y, z).Equal(Or(z, y, x)) {
		t.Errorf("Or must compare as multiset")
	}
	if !And(x, y).Equal(And(y, x)) {
		t.Errorf("And must compare as multiset")
	}
	if Or(x, y).Equal(Or(x, z)) {
		t.Errorf("different operands must not be Equal")
	}
	if Or(x, y).Equal(And(x, y)) {
		t.Errorf("different kinds must not be Equal")
	}
	if x.Equal(nil) {
		t.Errorf("Equal(nil) must be false")
	}
	var n *Expr
	if n.Equal(x) {
		t.Errorf("nil.Equal(x) must be false")
	}
}

func TestHashOrderIndependence(t *testing.T) {
	x, y, z := v("a", 1), v("b", 2), v("c", 3)
	if Or(x, y, z).Hash() != Or(z, x, y).Hash() {
		t.Errorf("Or hash must be operand-order independent")
	}
	if And(x, y).Hash() != And(y, x).Hash() {
		t.Errorf("And hash must be operand-order independent")
	}
}

func TestEval(t *testing.T) {
	a1, b2, b3 := Var{"a", 1}, Var{"b", 2}, Var{"b", 3}
	e := AndNot(VarExpr(a1), Or(VarExpr(b3), VarExpr(b2)))
	cases := []struct {
		assign map[Var]bool
		want   bool
	}{
		{map[Var]bool{a1: true}, true}, // b's default false
		{map[Var]bool{a1: true, b3: true}, false},
		{map[Var]bool{a1: true, b2: true}, false},
		{map[Var]bool{a1: false}, false},
		{map[Var]bool{a1: true, b2: false, b3: false}, true},
	}
	for i, c := range cases {
		if got := e.Eval(c.assign); got != c.want {
			t.Errorf("case %d: Eval = %v, want %v", i, got, c.want)
		}
	}
}

func TestVars(t *testing.T) {
	e := AndNot(v("a", 1), Or(v("b", 3), v("b", 2)))
	vars := e.Vars()
	want := []Var{{"a", 1}, {"b", 2}, {"b", 3}}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range vars {
		if vars[i] != want[i] {
			t.Errorf("Vars[%d] = %v, want %v", i, vars[i], want[i])
		}
	}
}

func TestRestrict(t *testing.T) {
	a1, b2, b3 := Var{"a", 1}, Var{"b", 2}, Var{"b", 3}
	e := AndNot(VarExpr(a1), Or(VarExpr(b3), VarExpr(b2)))
	if got := e.Restrict(a1, false); got != False() {
		t.Errorf("Restrict a1=false should collapse to ⊥, got %v", got)
	}
	g := e.Restrict(b3, true)
	if g != False() {
		t.Errorf("Restrict b3=true should collapse to ⊥ (¬(⊤∨b2)=⊥), got %v", g)
	}
	h := e.Restrict(b3, false)
	if h.String() != "a1 ∧ ¬b2" {
		t.Errorf("Restrict b3=false = %q, want a1 ∧ ¬b2", h)
	}
	// Restricting an absent variable returns the identical node.
	if e.Restrict(Var{"z", 9}, true) != e {
		t.Errorf("Restrict on absent variable should be identity")
	}
}

func TestRestrictAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		e := randExpr(rng, 3)
		vars := e.Vars()
		if len(vars) == 0 {
			continue
		}
		pick := vars[rng.Intn(len(vars))]
		val := rng.Intn(2) == 1
		r := e.Restrict(pick, val)
		// r must agree with e on every assignment consistent with pick=val.
		assign := make(map[Var]bool)
		for i := 0; i < 30; i++ {
			for _, vr := range vars {
				assign[vr] = rng.Intn(2) == 1
			}
			assign[pick] = val
			if e.Eval(assign) != r.Eval(assign) {
				t.Fatalf("trial %d: Restrict disagrees: e=%v r=%v assign=%v", trial, e, r, assign)
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	x, y := v("a", 1), v("b", 2)
	if !Equivalent(Not(And(x, y)), Or(Not(x), Not(y))) {
		t.Errorf("De Morgan must hold")
	}
	if !Equivalent(Or(x, And(x, y)), x) {
		t.Errorf("absorption must hold")
	}
	if Equivalent(x, y) {
		t.Errorf("distinct variables are not equivalent")
	}
	if !Equivalent(nil, nil) {
		t.Errorf("null ≡ null")
	}
	if Equivalent(nil, False()) {
		t.Errorf("null must not be equivalent to ⊥")
	}
	if !Equivalent(Or(x, Not(x)), True()) {
		t.Errorf("x ∨ ¬x is a tautology")
	}
	if !Equivalent(And(x, Not(x)), False()) {
		t.Errorf("x ∧ ¬x is unsatisfiable")
	}
}

func TestEqualImpliesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a := randExpr(rng, 3)
		b := randExpr(rng, 3)
		if a.Equal(b) && !Equivalent(a, b) {
			t.Fatalf("Equal formulas must be Equivalent: %v vs %v", a, b)
		}
	}
}

func TestHashEqualConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randExpr(rng, 3)
		b := randExpr(rng, 3)
		if a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randExpr builds a random expression over variables a1..a4, b1..b4.
func randExpr(rng *rand.Rand, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		rel := "a"
		if rng.Intn(2) == 0 {
			rel = "b"
		}
		return NewVar(rel, 1+rng.Intn(4))
	}
	switch rng.Intn(4) {
	case 0:
		return Not(randExpr(rng, depth-1))
	case 1:
		return And(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 2:
		return Or(randExpr(rng, depth-1), randExpr(rng, depth-1))
	default:
		return Or(randExpr(rng, depth-1), And(randExpr(rng, depth-1), randExpr(rng, depth-1)))
	}
}
