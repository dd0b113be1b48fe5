package oracle

import (
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

var a, b = lineage.VarExpr(lineage.Var{Rel: "r", ID: 1}), lineage.VarExpr(lineage.Var{Rel: "s", ID: 1})

// pair is a two-row result: (k, NULL) with a ∧ ¬b over [1,4), (k, x) with
// b over [4,6).
func pair() *tp.Relation {
	rel := tp.NewRelation("q", "K", "V")
	rel.AppendDerived(tp.Fact{tp.String_("k"), tp.Null()}, lineage.AndNot(a, b), interval.New(1, 4), 0.3)
	rel.AppendDerived(tp.Strings("k", "x"), b, interval.New(4, 6), 0.6)
	return rel
}

// TestComparerModes: every mode reports each defect, a row split in two
// included; only Cross forgives a last-ulp difference in P, and only Same
// holds row and operand order.
func TestComparerModes(t *testing.T) {
	modes := map[string]func(want, got *tp.Relation) error{"same": Same, "bag": Bag, "cross": Cross}
	changes := []struct {
		name                 string
		change               func(rel *tp.Relation)
		same, bagOK, crossOK bool // which modes must report equal
	}{
		{"nothing", func(*tp.Relation) {}, true, true, true},
		{"NULL vs text -", func(rel *tp.Relation) { rel.Tuples[0].Fact = tp.Strings("k", "-") }, false, false, false},
		{"missing row", func(rel *tp.Relation) { rel.Tuples = rel.Tuples[:1] }, false, false, false},
		{"extra row", func(rel *tp.Relation) { rel.Tuples = append(rel.Tuples, rel.Tuples[1]) }, false, false, false},
		{"shifted end", func(rel *tp.Relation) { rel.Tuples[0].T = interval.New(1, 5) }, false, false, false},
		{"swapped operand", func(rel *tp.Relation) { rel.Tuples[0].Lineage = lineage.AndNot(b, a) }, false, false, false},
		{"ΔP = 1e-9", func(rel *tp.Relation) { rel.Tuples[0].Prob += 1e-9 }, false, false, false},
		{"schema", func(rel *tp.Relation) { rel.Attrs = []string{"K", "W"} }, false, false, false},
		// 0.3 + 1e-16 is two ulps off 0.3, so Same and Bag must see it.
		{"ΔP = 1e-16", func(rel *tp.Relation) { rel.Tuples[0].Prob += 1e-16 }, false, false, true},
		{"reordered ∧", func(rel *tp.Relation) { rel.Tuples[0].Lineage = lineage.And(lineage.Not(b), a) }, false, true, true},
		{"reordered rows", func(rel *tp.Relation) { rel.Tuples[0], rel.Tuples[1] = rel.Tuples[1], rel.Tuples[0] }, false, true, true},
		{"split row", func(rel *tp.Relation) {
			rel.Tuples = append(rel.Tuples, rel.Tuples[0])
			rel.Tuples[0].T, rel.Tuples[2].T = interval.New(1, 2), interval.New(2, 4)
		}, false, false, false},
	}
	for _, c := range changes {
		got := pair()
		c.change(got)
		for mode, want := range map[string]bool{"same": c.same, "bag": c.bagOK, "cross": c.crossOK} {
			if err := modes[mode](pair(), got); (err == nil) != want {
				t.Errorf("%s: %s reported %v, want equal=%t", c.name, mode, err, want)
			}
		}
	}
}

// TestGenReproducible: one seed, one relation; Overlap keeps every draw,
// the sparse families drop what would overlap, and both stay sequenced.
func TestGenReproducible(t *testing.T) {
	for _, g := range []Gen{Small, SmallXYZ, Wide, Dense} {
		r := g.Relation(rand.New(rand.NewSource(5)), "r", 20)
		if err := Same(r, g.Relation(rand.New(rand.NewSource(5)), "r", 20)); err != nil {
			t.Errorf("%+v: same seed, different relation: %v", g, err)
		}
		if err := r.ValidateSequenced(); err != nil || g.Overlap != (r.Len() == 20) {
			t.Errorf("%+v: %d of 20 draws kept, %v", g, r.Len(), err)
		}
	}
}
