// Package oracle is the test support shared by the differential
// harnesses: one seeded generator of small random TP relations, the
// adversarial profiles and dataset workloads the cross-strategy tests
// sweep, and one structural comparer of result relations (compare.go).
// Only _test.go files import it; no binary links it.
package oracle

import (
	"fmt"
	"math/rand"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// Gen is a family of small random sequenced relations over one join-key
// column K: a tuple starts in [0, Start), lasts 1 to Span chronons and
// has a probability in [0.1, 0.9).
type Gen struct {
	Keys        []string
	Start, Span int
	// Overlap adds a group column G, distinct per tuple, so that same-key
	// tuples may overlap; without it a draw that overlaps an earlier tuple
	// of its key is dropped.
	Overlap bool
}

// The parameter sets of the property tests.
var (
	Small    = Gen{Keys: []string{"k1", "k2", "k3"}, Start: 18, Span: 8} // core, align
	SmallXYZ = Gen{Keys: []string{"x", "y", "z"}, Start: 15, Span: 6}    // setops
	Wide     = Gen{Keys: []string{"k1", "k2", "k3"}, Start: 20, Span: 8} // window
	// Dense makes multi-tuple covers and shared split points (align).
	Dense = Gen{Keys: []string{"k1", "k2", "k3", "k4"}, Start: 40, Span: 15, Overlap: true}
)

// Relation makes n draws of g from rng into a relation called name.
func (g Gen) Relation(rng *rand.Rand, name string, n int) *tp.Relation {
	if g.Overlap {
		return grouped(rng, name, n, func(int) (string, interval.Interval) {
			k, st := g.Keys[rng.Intn(len(g.Keys))], interval.Time(rng.Intn(g.Start))
			return k, interval.New(st, st+1+interval.Time(rng.Intn(g.Span)))
		})
	}
	rel := tp.NewRelation(name, "K")
	used := make(map[string][]interval.Interval)
draw:
	for range n {
		k, st := g.Keys[rng.Intn(len(g.Keys))], interval.Time(rng.Intn(g.Start))
		iv := interval.New(st, st+1+interval.Time(rng.Intn(g.Span)))
		for _, u := range used[k] {
			if iv.Overlaps(u) {
				continue draw
			}
		}
		used[k] = append(used[k], iv)
		rel.Append(tp.Strings(k), iv, 0.1+0.8*rng.Float64())
	}
	return rel
}

// grouped makes n tuples (K, "g<i>") with the key and interval draw
// returns.
func grouped(rng *rand.Rand, name string, n int, draw func(i int) (string, interval.Interval)) *tp.Relation {
	rel := tp.NewRelation(name, "K", "G")
	for i := range n {
		k, iv := draw(i)
		rel.Append(tp.Strings(k, fmt.Sprintf("g%d", i)), iv, 0.1+0.8*rng.Float64())
	}
	return rel
}

// Profile is one adversarial input shape; Make draws both sides, to be
// joined on column 0. Infinite profiles have ±∞ endpoints, which
// tp.RefJoin cannot enumerate. Derived asks the harness to replace r by
// the LEFT join of r and s, so that the lineage joined with s again is
// not read-once; joins live above this package.
type Profile struct {
	Name              string
	Make              func(rng *rand.Rand) (r, s *tp.Relation)
	Infinite, Derived bool
}

// Profiles are the adversarial shapes, at most 30 tuples per side and 10
// for the derived input, whose lineage goes through Shannon expansion.
var Profiles = []Profile{
	{Name: "one-key-overlap", Make: both(Gen{Keys: []string{"k"}, Start: 20, Span: 12, Overlap: true}, 30)},
	{Name: "identical-intervals", Make: shaped(func(*rand.Rand) interval.Interval { return interval.New(3, 9) })},
	{Name: "infinite-endpoints", Infinite: true, Make: shaped(func(rng *rand.Rand) interval.Interval {
		st, e := interval.Time(rng.Intn(12)), interval.Time(13+rng.Intn(8))
		switch rng.Intn(4) {
		case 0:
			st = interval.MinTime
		case 1:
			e = interval.MaxTime
		case 2:
			st, e = interval.MinTime, interval.MaxTime
		}
		return interval.New(st, e)
	})},
	{Name: "zero-gap", Make: func(rng *rand.Rand) (r, s *tp.Relation) {
		// Each fact's tuples follow one another, so a fact meets itself.
		adjacent := func(name string) *tp.Relation {
			rel, next := tp.NewRelation(name, "K", "G"), make(map[string]interval.Time)
			for range 1 + rng.Intn(30) {
				f := tp.Strings(Dense.Keys[rng.Intn(2)], fmt.Sprint("g", rng.Intn(2)))
				st := next[f.Key()]
				next[f.Key()] = st + 1 + interval.Time(rng.Intn(4))
				rel.Append(f, interval.New(st, next[f.Key()]), 0.1+0.8*rng.Float64())
			}
			return rel
		}
		return adjacent("r"), adjacent("s")
	}},
	{Name: "p-0-1", Make: func(rng *rand.Rand) (r, s *tp.Relation) {
		r, s = both(Dense, 30)(rng)
		for _, rel := range []*tp.Relation{r, s} {
			for i := range rel.Tuples {
				rel.Tuples[i].Prob = float64(rng.Intn(2))
				rel.Probs[rel.Tuples[i].Lineage.Variable()] = rel.Tuples[i].Prob
			}
		}
		return r, s
	}},
	{Name: "self-join", Make: func(rng *rand.Rand) (r, s *tp.Relation) {
		r = Dense.Relation(rng, "r", 1+rng.Intn(30))
		return r, r
	}},
	{Name: "derived", Derived: true, Make: both(Gen{Keys: []string{"k1", "k2"}, Start: 12, Span: 8, Overlap: true}, 10)},
}

// both draws r and s from g, 1 to n draws each.
func both(g Gen, n int) func(*rand.Rand) (r, s *tp.Relation) {
	return func(rng *rand.Rand) (r, s *tp.Relation) {
		return g.Relation(rng, "r", 1+rng.Intn(n)), g.Relation(rng, "s", 1+rng.Intn(n))
	}
}

// shaped draws r and s over two keys with the intervals iv returns.
func shaped(iv func(*rand.Rand) interval.Interval) func(*rand.Rand) (r, s *tp.Relation) {
	return func(rng *rand.Rand) (r, s *tp.Relation) {
		draw := func(int) (string, interval.Interval) { return Dense.Keys[rng.Intn(2)], iv(rng) }
		return grouped(rng, "r", 1+rng.Intn(30), draw), grouped(rng, "s", 1+rng.Intn(30), draw)
	}
}

// Workload is one seeded dataset join of the cross-strategy tests.
type Workload struct {
	Name  string
	R, S  *tp.Relation
	Theta tp.EquiTheta
}

// Webkit returns the Webkit workload of n tuples per side at each seed.
func Webkit(n int, seeds ...int64) []Workload {
	return workloads("webkit", dataset.Webkit, dataset.WebkitTheta(), n, seeds)
}

// Meteo returns the Meteo workload of n tuples per side at each seed.
func Meteo(n int, seeds ...int64) []Workload {
	return workloads("meteo", dataset.Meteo, dataset.MeteoTheta(), n, seeds)
}

func workloads(name string, gen func(int, int64) (r, s *tp.Relation), theta tp.EquiTheta, n int, seeds []int64) []Workload {
	out := make([]Workload, len(seeds))
	for i, seed := range seeds {
		r, s := gen(n, seed)
		out[i] = Workload{fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), r, s, theta}
	}
	return out
}
