package prob

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"tpjoin/internal/lineage"
)

// goldenSet is one seeded batch of formulas evaluated through one
// evaluator (so the memo is shared across the set, as in a join tail).
type goldenSet struct {
	name  string
	es    []*lineage.Expr
	probs Probs
}

// goldenGen draws fresh base events and their probabilities from one
// seeded stream.
type goldenGen struct {
	rng   *rand.Rand
	probs Probs
	next  int
}

func (g *goldenGen) fresh(rel string) *lineage.Expr {
	g.next++
	v := lineage.Var{Rel: rel, ID: g.next}
	g.probs[v] = g.rng.Float64()
	return lineage.VarExpr(v)
}

func (g *goldenGen) cover(rel string, k int) *lineage.Expr {
	ops := make([]*lineage.Expr, k)
	for i := range ops {
		ops[i] = g.fresh(rel)
	}
	return lineage.Or(ops...)
}

// chain grows a read-once lineage the way nested TP joins do: each level
// conjoins a fresh matching event or the negation of a fresh cover.
func (g *goldenGen) chain(e *lineage.Expr, levels int) *lineage.Expr {
	for l := 0; l < levels; l++ {
		switch g.rng.Intn(3) {
		case 0:
			e = lineage.And(e, g.fresh("b"))
		case 1:
			e = lineage.AndNot(e, g.cover("b", 1+g.rng.Intn(6)))
		default:
			e = lineage.Or(e, lineage.And(g.fresh("c"), lineage.Not(g.fresh("d"))))
		}
	}
	return e
}

// tree is a random formula over a fixed pool, so variables repeat.
func (g *goldenGen) tree(pool []*lineage.Expr, depth int) *lineage.Expr {
	if depth == 0 || g.rng.Intn(4) == 0 {
		return pool[g.rng.Intn(len(pool))]
	}
	if g.rng.Intn(4) == 0 {
		return lineage.Not(g.tree(pool, depth-1))
	}
	ops := make([]*lineage.Expr, 2+g.rng.Intn(3))
	for i := range ops {
		ops[i] = g.tree(pool, depth-1)
	}
	if g.rng.Intn(2) == 0 {
		return lineage.And(ops...)
	}
	return lineage.Or(ops...)
}

// goldenSets is the seeded corpus the golden table pins: read-once
// chains, wide ∨ covers, shared-variable trees, random DNFs over a small
// pool (the Shannon-heavy case), shared-variable roots over read-once
// sub-formulas, and the derived re-join shape (a CTAS result joined with
// its own input again). The corpus is a pure function of the constants
// below; testdata/golden_bits.txt holds what the two evaluators of the
// commit before the merge computed for it.
func goldenSets() []goldenSet {
	var sets []goldenSet
	add := func(family string, n int, build func(g *goldenGen) []*lineage.Expr) {
		for i := 0; i < n; i++ {
			g := &goldenGen{rng: rand.New(rand.NewSource(int64(len(sets))*7919 + 17)), probs: make(Probs)}
			es := build(g)
			sets = append(sets, goldenSet{name: fmt.Sprintf("%s/%d", family, i), es: es, probs: g.probs})
		}
	}
	add("chain", 100, func(g *goldenGen) []*lineage.Expr {
		es := make([]*lineage.Expr, 8)
		e := g.fresh("a")
		for i := range es {
			e = g.chain(e, 1+g.rng.Intn(3))
			es[i] = e
		}
		return es
	})
	add("cover", 60, func(g *goldenGen) []*lineage.Expr {
		es := make([]*lineage.Expr, 4)
		a := g.fresh("a")
		for i := range es {
			es[i] = lineage.AndNot(a, g.cover("b", 2+g.rng.Intn(99*(i+1))))
		}
		return es
	})
	add("shared", 150, func(g *goldenGen) []*lineage.Expr {
		pool := make([]*lineage.Expr, 6+g.rng.Intn(7))
		for i := range pool {
			pool[i] = g.fresh("v")
		}
		es := make([]*lineage.Expr, 4)
		for i := range es {
			es[i] = g.tree(pool, 4)
		}
		return es
	})
	add("dnf", 60, func(g *goldenGen) []*lineage.Expr {
		pool := make([]*lineage.Expr, 8+g.rng.Intn(9))
		for i := range pool {
			pool[i] = g.fresh("v")
		}
		es := make([]*lineage.Expr, 4)
		for i := range es {
			terms := make([]*lineage.Expr, 4+g.rng.Intn(12))
			for j := range terms {
				lits := make([]*lineage.Expr, 2+g.rng.Intn(3))
				for k := range lits {
					lits[k] = pool[g.rng.Intn(len(pool))]
					if g.rng.Intn(3) == 0 {
						lits[k] = lineage.Not(lits[k])
					}
				}
				terms[j] = lineage.And(lits...)
			}
			es[i] = lineage.Or(terms...)
		}
		return es
	})
	add("mixed", 100, func(g *goldenGen) []*lineage.Expr {
		es := make([]*lineage.Expr, 4)
		x, y := g.fresh("x"), g.fresh("x")
		for i := range es {
			ro := func() *lineage.Expr { return g.chain(g.fresh("a"), 2+g.rng.Intn(4)) }
			es[i] = lineage.Or(
				lineage.And(x, ro()),
				lineage.And(lineage.Not(x), y, ro()),
				lineage.AndNot(ro(), lineage.Or(y, g.cover("b", 1+g.rng.Intn(40)))))
		}
		return es
	})
	add("rejoin", 60, func(g *goldenGen) []*lineage.Expr {
		s := make([]*lineage.Expr, 4+g.rng.Intn(5))
		for i := range s {
			s[i] = g.fresh("s")
		}
		pick := func() *lineage.Expr {
			ops := make([]*lineage.Expr, 1+g.rng.Intn(3))
			for i := range ops {
				ops[i] = s[g.rng.Intn(len(s))]
			}
			return lineage.Or(ops...)
		}
		es := make([]*lineage.Expr, 4)
		for i := range es {
			t2 := lineage.AndNot(g.fresh("r"), pick()) // t2 = r ANTI JOIN s
			if i%2 == 0 {
				es[i] = lineage.AndNot(t2, pick()) // t2 LEFT JOIN s, negating window
			} else {
				es[i] = lineage.And(t2, s[g.rng.Intn(len(s))]) // overlapping window
			}
		}
		return es
	})
	return sets
}

const goldenFile = "testdata/golden_bits.txt"

// TestEvaluatorGoldenBits pins the evaluator to the exact float64s
// (math.Float64bits) and Shannon-step counts that both the scalar and
// the batched evaluator of the commit before they were merged computed
// for goldenSets. The table is never regenerated from the evaluator
// under test: a deliberate change of evaluation order needs a new table
// made on the commit before that change.
func TestEvaluatorGoldenBits(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	formulas := 0
	for _, set := range goldenSets() {
		if !sc.Scan() {
			t.Fatalf("%s: golden table ends early (%v)", set.name, sc.Err())
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 2+len(set.es) || fields[0] != set.name {
			t.Fatalf("%s: golden line %q does not describe this set", set.name, sc.Text())
		}
		ev := NewBatchEvaluator(set.probs)
		out := make([]float64, len(set.es))
		ev.EvalBatch(set.es, out)
		if steps, _ := strconv.ParseInt(fields[1], 10, 64); int64(ev.ShannonSteps()) != steps {
			t.Errorf("%s: %d Shannon steps, golden %d", set.name, ev.ShannonSteps(), steps)
		}
		for i, p := range out {
			want, err := strconv.ParseUint(fields[2+i], 16, 64)
			if err != nil {
				t.Fatalf("%s[%d]: %v", set.name, i, err)
			}
			if got := math.Float64bits(p); got != want {
				t.Errorf("%s[%d]: Pr = %v (%016x), golden %v (%016x)",
					set.name, i, p, got, math.Float64frombits(want), want)
			}
			// The single-formula entry point answers from the same memo.
			if q := ev.Prob(set.es[i]); q != p {
				t.Errorf("%s[%d]: Prob = %v after EvalBatch = %v", set.name, i, q, p)
			}
			formulas++
		}
	}
	if sc.Scan() {
		t.Errorf("golden table has lines past the corpus: %q", sc.Text())
	}
	if formulas < 2000 {
		t.Errorf("corpus has %d formulas, want >= 2000", formulas)
	}
}
