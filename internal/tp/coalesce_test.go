package tp

import (
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
)

func TestCoalesceMergesAdjacent(t *testing.T) {
	r := NewRelation("r", "K")
	lam := lineage.NewVar("r", 1)
	r.Probs[lineage.Var{Rel: "r", ID: 1}] = 0.5
	r.AppendDerived(Strings("x"), lam, interval.New(0, 3), 0.5)
	r.AppendDerived(Strings("x"), lam, interval.New(3, 6), 0.5)
	r.AppendDerived(Strings("x"), lam, interval.New(8, 9), 0.5)
	c := Coalesce(r)
	if c.Len() != 2 {
		t.Fatalf("coalesced to %d tuples, want 2: %v", c.Len(), c)
	}
	if !c.Tuples[0].T.Equal(interval.New(0, 6)) {
		t.Errorf("merged interval = %v, want [0,6)", c.Tuples[0].T)
	}
	if !c.Tuples[1].T.Equal(interval.New(8, 9)) {
		t.Errorf("gap must not merge: %v", c.Tuples[1].T)
	}
}

func TestCoalesceRespectsLineage(t *testing.T) {
	r := NewRelation("r", "K")
	r.Append(Strings("x"), interval.New(0, 3), 0.5) // r1
	r.Append(Strings("x"), interval.New(3, 6), 0.5) // r2: different lineage
	c := Coalesce(r)
	if c.Len() != 2 {
		t.Errorf("different lineages must not merge: %v", c)
	}
}

func TestCoalesceRespectsFacts(t *testing.T) {
	r := NewRelation("r", "K")
	lam := lineage.NewVar("e", 1)
	r.AppendDerived(Strings("x"), lam, interval.New(0, 3), 0.5)
	r.AppendDerived(Strings("y"), lam, interval.New(3, 6), 0.5)
	if c := Coalesce(r); c.Len() != 2 {
		t.Errorf("different facts must not merge: %v", c)
	}
}

func TestCoalesceEmpty(t *testing.T) {
	if c := Coalesce(NewRelation("r", "K")); c.Len() != 0 {
		t.Errorf("empty coalesce wrong")
	}
}

func TestCoalescePreservesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		r := NewRelation("r", "K")
		// Random chunks of one fact with one of two lineages; overlapping
		// chunks of the same lineage are fine for coalescing but must be
		// disjoint per (fact, lineage) pair to keep Expand happy — use
		// distinct facts per lineage instead.
		for i := 0; i < 8; i++ {
			k := []string{"x", "y"}[rng.Intn(2)]
			id := rng.Intn(2) + 1
			lam := lineage.NewVar("e", id)
			r.Probs[lineage.Var{Rel: "e", ID: id}] = 0.5
			s := interval.Time(rng.Intn(12))
			r.AppendDerived(Strings(k+lam.String()), lam, interval.New(s, s+1+interval.Time(rng.Intn(4))), 0.5)
		}
		// Drop overlapping duplicates first (coalesce merges them anyway,
		// but Expand on the input would fail); compare coalesced output
		// against a set of covered points.
		c := Coalesce(r)
		covered := func(rel *Relation, key string, t interval.Time) bool {
			for _, tu := range rel.Tuples {
				if tu.Fact.Key() == key && tu.T.Contains(t) {
					return true
				}
			}
			return false
		}
		for tt := interval.Time(0); tt < 20; tt++ {
			for _, key := range []string{Strings("xe1").Key(), Strings("ye2").Key()} {
				if covered(r, key, tt) != covered(c, key, tt) {
					t.Fatalf("trial %d: coverage changed at (%q,%d)", trial, key, tt)
				}
			}
		}
		// Coalesced tuples of the same (fact, lineage) must be maximal.
		for i, a := range c.Tuples {
			for j, b := range c.Tuples {
				if i != j && a.Fact.Equal(b.Fact) && a.Lineage.Equal(b.Lineage) {
					if a.T.Start <= b.T.End && b.T.Start <= a.T.End {
						t.Fatalf("trial %d: non-maximal coalescing: %v and %v", trial, a.T, b.T)
					}
				}
			}
		}
	}
}
