package setops

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

var ctx = context.Background()

// pointwiseRef computes the reference result of a set operation at every
// time point: for each fact and t, the probabilities pr (valid in r) and
// ps (valid in s) combine as union 1-(1-pr)(1-ps), intersection pr·ps, or
// difference pr·(1-ps); a side that is not valid contributes "absent".
func pointwiseRef(op string, r, s *tp.Relation) map[string]map[interval.Time]float64 {
	type sideVal struct {
		p     float64
		valid bool
	}
	collect := func(rel *tp.Relation) map[string]map[interval.Time]sideVal {
		ev := prob.NewBatchEvaluator(rel.Probs)
		out := make(map[string]map[interval.Time]sideVal)
		for _, t := range rel.Tuples {
			k := t.Fact.Key()
			if out[k] == nil {
				out[k] = make(map[interval.Time]sideVal)
			}
			p := ev.Prob(t.Lineage)
			for tt := t.T.Start; tt < t.T.End; tt++ {
				out[k][tt] = sideVal{p: p, valid: true}
			}
		}
		return out
	}
	rv, sv := collect(r), collect(s)
	out := make(map[string]map[interval.Time]float64)
	add := func(k string, t interval.Time, p float64) {
		if out[k] == nil {
			out[k] = make(map[interval.Time]float64)
		}
		out[k][t] = p
	}
	keys := make(map[string]bool)
	for k := range rv {
		keys[k] = true
	}
	for k := range sv {
		keys[k] = true
	}
	for k := range keys {
		times := make(map[interval.Time]bool)
		for t := range rv[k] {
			times[t] = true
		}
		for t := range sv[k] {
			times[t] = true
		}
		for t := range times {
			a, b := rv[k][t], sv[k][t]
			switch op {
			case "union":
				switch {
				case a.valid && b.valid:
					add(k, t, 1-(1-a.p)*(1-b.p))
				case a.valid:
					add(k, t, a.p)
				default:
					add(k, t, b.p)
				}
			case "intersect":
				if a.valid && b.valid {
					add(k, t, a.p*b.p)
				}
			case "difference":
				switch {
				case a.valid && b.valid:
					add(k, t, a.p*(1-b.p))
				case a.valid:
					add(k, t, a.p)
				}
			}
		}
	}
	return out
}

func expandProbs(t *testing.T, rel *tp.Relation) map[string]map[interval.Time]float64 {
	t.Helper()
	pm, err := tp.Expand(rel)
	if err != nil {
		t.Fatalf("result not sequenced-valid: %v\n%v", err, rel)
	}
	out := make(map[string]map[interval.Time]float64)
	for k, times := range pm {
		out[k] = make(map[interval.Time]float64)
		for tt, row := range times {
			out[k][tt] = row.Prob
		}
	}
	return out
}

func equalMaps(t *testing.T, got, want map[string]map[interval.Time]float64, label string) {
	t.Helper()
	for k, times := range want {
		for tt, p := range times {
			g, ok := got[k][tt]
			if !ok {
				t.Fatalf("%s: missing (%q, %d)", label, k, tt)
			}
			if math.Abs(g-p) > 1e-9 {
				t.Fatalf("%s: (%q, %d): got %g want %g", label, k, tt, g, p)
			}
		}
	}
	for k, times := range got {
		for tt := range times {
			if _, ok := want[k][tt]; !ok {
				t.Fatalf("%s: extra (%q, %d)", label, k, tt)
			}
		}
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
	equalMaps(t, expandProbs(t, u), pointwiseRef("union", r, s), "union")
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
	equalMaps(t, expandProbs(t, x), pointwiseRef("intersect", r, s), "intersect")
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
	equalMaps(t, expandProbs(t, d), pointwiseRef("difference", r, s), "difference")
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
		r := randRelation(rng, "r")
		s := randRelation(rng, "s")
		u, err := Union(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		equalMaps(t, expandProbs(t, u), pointwiseRef("union", r, s), "union")
		x, err := Intersect(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		equalMaps(t, expandProbs(t, x), pointwiseRef("intersect", r, s), "intersect")
		d, err := Difference(ctx, r, s)
		if err != nil {
			t.Fatal(err)
		}
		equalMaps(t, expandProbs(t, d), pointwiseRef("difference", r, s), "difference")
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

func randRelation(rng *rand.Rand, name string) *tp.Relation {
	keys := []string{"x", "y", "z"}
	rel := tp.NewRelation(name, "K")
	type span struct{ s, e interval.Time }
	used := make(map[string][]span)
	n := rng.Intn(7)
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		st := interval.Time(rng.Intn(15))
		e := st + 1 + interval.Time(rng.Intn(6))
		ok := true
		for _, u := range used[k] {
			if st < u.e && u.s < e {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		used[k] = append(used[k], span{st, e})
		rel.Append(tp.Strings(k), interval.New(st, e), 0.1+0.8*rng.Float64())
	}
	return rel
}
