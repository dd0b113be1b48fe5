package setops

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

var ctx = context.Background()

// pointwiseRef computes the reference result of a set operation at every
// time point: for each fact and t, the probabilities pr (valid in r) and
// ps (valid in s) combine as union 1-(1-pr)(1-ps), intersection pr·ps, or
// difference pr·(1-ps); a side that is not valid contributes "absent".
func pointwiseRef(op string, r, s *tp.Relation) tp.PointMap {
	rv, _ := tp.Expand(r)
	sv, _ := tp.Expand(s)
	out := make(tp.PointMap)
	add := func(k string, t interval.Time, f tp.Fact, p float64) {
		if out[k] == nil {
			out[k] = make(map[interval.Time]tp.PointRow)
		}
		out[k][t] = tp.PointRow{Fact: f, Prob: p}
	}
	for k, times := range rv {
		for t, a := range times {
			b, both := sv[k][t]
			switch {
			case !both && op != "intersect":
				add(k, t, a.Fact, a.Prob)
			case both && op == "union":
				add(k, t, a.Fact, 1-(1-a.Prob)*(1-b.Prob))
			case both && op == "intersect":
				add(k, t, a.Fact, a.Prob*b.Prob)
			case both && op == "difference":
				add(k, t, a.Fact, a.Prob*(1-b.Prob))
			}
		}
	}
	for k, times := range sv {
		for t, b := range times {
			if _, ok := rv[k][t]; !ok && op == "union" {
				add(k, t, b.Fact, b.Prob)
			}
		}
	}
	return out
}

// requireRef holds got point-wise to pointwiseRef.
func requireRef(t *testing.T, op string, r, s, got *tp.Relation) {
	t.Helper()
	if err := oracle.PointWise(pointwiseRef(op, r, s), got); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
}

func demo() (*tp.Relation, *tp.Relation) {
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("x"), interval.New(0, 6), 0.8)
	r.Append(tp.Strings("y"), interval.New(2, 5), 0.5)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("x"), interval.New(3, 9), 0.4)
	s.Append(tp.Strings("z"), interval.New(0, 4), 0.9)
	return r, s
}

func TestUnionDemo(t *testing.T) {
	r, s := demo()
	u, err := Union(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	requireRef(t, "union", r, s, u)
	// x over [3,6) must have lineage r1 ∨ s1 with prob 1-0.2*0.6 = 0.88.
	found := false
	for _, tu := range u.Tuples {
		if tu.Fact.String() == "x" && tu.T.Equal(interval.New(3, 6)) {
			found = true
			if math.Abs(tu.Prob-0.88) > 1e-9 {
				t.Errorf("union overlap prob = %g, want 0.88", tu.Prob)
			}
			if tu.Lineage.String() != "r1 ∨ s1" {
				t.Errorf("union lineage = %v, want r1 ∨ s1", tu.Lineage)
			}
		}
	}
	if !found {
		t.Errorf("missing overlap tuple in union: %v", u)
	}
}

func TestIntersectDemo(t *testing.T) {
	r, s := demo()
	x, err := Intersect(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	requireRef(t, "intersect", r, s, x)
	if x.Len() != 1 {
		t.Fatalf("intersection must have exactly the x overlap, got %v", x)
	}
	if got := x.Tuples[0].Prob; math.Abs(got-0.32) > 1e-9 {
		t.Errorf("intersect prob = %g, want 0.32", got)
	}
}

func TestDifferenceDemo(t *testing.T) {
	r, s := demo()
	d, err := Difference(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	requireRef(t, "difference", r, s, d)
	// x on [3,6): 0.8 * 0.6 = 0.48; x on [0,3): 0.8; y untouched 0.5.
	want := map[string]float64{"[0,3)": 0.8, "[3,6)": 0.48, "[2,5)": 0.5}
	for _, tu := range d.Tuples {
		if w, ok := want[tu.T.String()]; ok {
			if math.Abs(tu.Prob-w) > 1e-9 {
				t.Errorf("difference %v prob = %g, want %g", tu.T, tu.Prob, w)
			}
		}
	}
}

func TestUnionCompatibility(t *testing.T) {
	r := tp.NewRelation("r", "A", "B")
	s := tp.NewRelation("s", "A")
	if _, err := Union(ctx, r, s); err == nil {
		t.Errorf("arity mismatch must error")
	}
	if _, err := Intersect(ctx, r, s); err == nil {
		t.Errorf("arity mismatch must error")
	}
	if _, err := Difference(ctx, r, s); err == nil {
		t.Errorf("arity mismatch must error")
	}
}

func TestSetOpsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		r := oracle.SmallXYZ.Relation(rng, "r", rng.Intn(7))
		s := oracle.SmallXYZ.Relation(rng, "s", rng.Intn(7))
		u, err := Union(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		requireRef(t, "union", r, s, u)
		x, err := Intersect(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		requireRef(t, "intersect", r, s, x)
		d, err := Difference(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		requireRef(t, "difference", r, s, d)
	}
}

func TestSetOpsIdentities(t *testing.T) {
	// r − r is nonempty in the probabilistic sense? No: every fact/time of
	// r matches itself, giving λ ∧ ¬λ = ⊥, probability 0. The companion
	// paper keeps such tuples (they are valid windows); check prob 0.
	r, _ := demo()
	d, err := Difference(ctx, r, r.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range d.Tuples {
		if tu.Prob != 0 {
			t.Errorf("r − r must have probability 0 everywhere, got %v", tu)
		}
	}
	// r ∪ r: 1-(1-p)² pointwise? No — both sides share base events, so
	// λ ∨ λ = λ and the probability stays p.
	u, err := Union(ctx, r, r.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range u.Tuples {
		if tu.Lineage.Kind().String() == "or" {
			// λr ∨ λr must have been simplified to λr by construction.
			t.Errorf("self-union lineage not simplified: %v", tu.Lineage)
		}
	}
}
