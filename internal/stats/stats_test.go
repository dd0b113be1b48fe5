package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// randomRelation builds a relation with NULLs, empty strings and
// arbitrary (not necessarily sequenced) intervals — stats must not depend
// on the sequenced constraint.
func randomRelation(rng *rand.Rand, name string) *tp.Relation {
	arity := 1 + rng.Intn(3)
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	rel := tp.NewRelation(name, attrs...)
	n := rng.Intn(300)
	for i := 0; i < n; i++ {
		f := make(tp.Fact, arity)
		for c := range f {
			switch rng.Intn(4) {
			case 0:
				f[c] = tp.Null()
			case 1:
				f[c] = tp.String_("") // distinct from NULL
			case 2:
				f[c] = tp.String_(fmt.Sprint(rng.Intn(8)))
			default:
				f[c] = tp.String_(fmt.Sprintf("v%d", rng.Intn(10)))
			}
		}
		start := int64(rng.Intn(1000))
		rel.Append(f, interval.New(start, start+1+int64(rng.Intn(50))), 0.5)
	}
	return rel
}

// bruteForce recomputes every statistic with independent, naive code.
func bruteForce(rel *tp.Relation) *Stats {
	st := &Stats{Tuples: rel.Len(), Cols: make([]ColStats, rel.Arity())}
	for c := range st.Cols {
		st.Cols[c].Name = rel.Attrs[c]
		counts := make(map[string]int)
		for _, t := range rel.Tuples {
			v := t.Fact[c]
			if v.IsNull() {
				st.Cols[c].Nulls++
				continue
			}
			counts[v.AsString()]++
		}
		st.Cols[c].Distinct = len(counts)
		for _, n := range counts {
			if n > st.Cols[c].MaxGroup {
				st.Cols[c].MaxGroup = n
			}
		}
		if len(counts) > 0 {
			st.Cols[c].MeanGroup = float64(st.Tuples-st.Cols[c].Nulls) / float64(len(counts))
		}
	}
	var sumDur int64
	for i, t := range rel.Tuples {
		d := t.T.Duration()
		sumDur += d
		if d > st.MaxDur {
			st.MaxDur = d
		}
		if i == 0 {
			st.Span = t.T
		} else {
			if t.T.Start < st.Span.Start {
				st.Span.Start = t.T.Start
			}
			if t.T.End > st.Span.End {
				st.Span.End = t.T.End
			}
		}
	}
	if st.Tuples > 0 {
		st.MeanDur = float64(sumDur) / float64(st.Tuples)
	}
	if sp := st.Span.Duration(); sp > 0 {
		st.Density = float64(sumDur) / float64(sp)
	}
	return st
}

func closeEnough(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestComputeMatchesBruteForce is the property test: for generated
// relations, the one-pass Compute must agree with a naive recomputation
// on every statistic.
func TestComputeMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, fmt.Sprintf("rel%d", seed))
		got, want := Compute(rel), bruteForce(rel)
		if got.Tuples != want.Tuples {
			t.Fatalf("seed %d: tuples %d vs %d", seed, got.Tuples, want.Tuples)
		}
		if !got.Span.Equal(want.Span) || got.MaxDur != want.MaxDur ||
			!closeEnough(got.MeanDur, want.MeanDur) || !closeEnough(got.Density, want.Density) {
			t.Errorf("seed %d: temporal stats differ:\n got %+v\nwant %+v", seed, got, want)
		}
		for c := range want.Cols {
			g, w := got.Cols[c], want.Cols[c]
			if g.Distinct != w.Distinct || g.Nulls != w.Nulls || g.MaxGroup != w.MaxGroup ||
				!closeEnough(g.MeanGroup, w.MeanGroup) {
				t.Errorf("seed %d col %d: %+v vs %+v", seed, c, g, w)
			}
		}
	}
}

func TestKeyInfo(t *testing.T) {
	rel := tp.NewRelation("k", "A", "B")
	for i := 0; i < 12; i++ {
		rel.Append(tp.Strings(fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i%2)),
			interval.New(int64(i*10), int64(i*10+5)), 0.5)
	}
	st := Compute(rel)
	one := st.Key([]int{0})
	if one.Distinct != 3 || one.MaxGroup != 4 || !closeEnough(one.MeanGroup, 4) {
		t.Errorf("single-column key info wrong: %+v", one)
	}
	// Multi-column: cardinality is the per-column product, the max group
	// is bounded by the smallest per-column maximum (a composite key only
	// splits groups further).
	both := st.Key([]int{0, 1})
	if both.Distinct != 6 || both.MaxGroup != 4 || !closeEnough(both.MeanGroup, 2) {
		t.Errorf("multi-column key info wrong: %+v", both)
	}
	// Concurrency = Density / Distinct.
	if !closeEnough(one.Concurrency, st.Density/3) {
		t.Errorf("concurrency %g, want %g", one.Concurrency, st.Density/3)
	}
	// Degenerate column sets behave as one whole-relation key.
	whole := st.Key(nil)
	if whole.Distinct != 1 || whole.MaxGroup != 12 {
		t.Errorf("empty key info wrong: %+v", whole)
	}
}

// TestCacheInvalidation pins Of's memo contract: a current profile is
// served as-is, and any Stamp move — even one that does not change the
// length, like a sort — forces a rebuild on next use.
func TestCacheInvalidation(t *testing.T) {
	rel := tp.NewRelation("r", "K")
	rel.Append(tp.Strings("x"), interval.New(0, 5), 0.5)
	rel.Append(tp.Strings("y"), interval.New(3, 9), 0.5)

	s1 := Of(rel)
	if s2 := Of(rel); s2 != s1 {
		t.Fatal("unchanged relation must be served from the memo")
	}
	// A sort moves the Stamp without changing the length; it invalidates.
	rel.SortByStart()
	s3 := Of(rel)
	if s3 == s1 {
		t.Fatal("Stamp move must force a stats rebuild")
	}
	// Mutation through Append is picked up lazily on next use.
	rel.Append(tp.Strings("z"), interval.New(10, 12), 0.5)
	if s4 := Of(rel); s4 == s3 || s4.Tuples != 3 {
		t.Fatalf("stats stale after append: %+v", s4)
	}
	// The memo lives on the relation: a clone starts without it.
	if Of(rel.Clone()) == Of(rel) {
		t.Fatal("a clone must not share its source's memo")
	}
}
