package core_test

import (
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// The paper's running example: who finds accommodation at their preferred
// location, and with which probability — at each time point.
func ExampleJoin_leftOuter() {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)

	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)

	q := core.Join(tp.OpLeft, a, b, tp.Equi(1, 1)) // θ: a.Loc = b.Loc
	for _, t := range q.Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('Ann, ZAK, -, -', a1, [2,4), 0.7)
	// ('Ann, ZAK, hotel1, ZAK', a1 ∧ b3, [4,6), 0.49)
	// ('Ann, ZAK, -, -', a1 ∧ ¬b3, [4,5), 0.21)
	// ('Ann, ZAK, hotel2, ZAK', a1 ∧ b2, [5,8), 0.42)
	// ('Ann, ZAK, -, -', a1 ∧ ¬(b3 ∨ b2), [5,6), 0.084)
	// ('Ann, ZAK, -, -', a1 ∧ ¬b2, [6,8), 0.28)
	// ('Jim, WEN, -, -', a2, [7,10), 0.8)
}

// The anti join keeps, per time point, the probability that a positive
// tuple matches nothing on the negative side.
func ExampleJoin_anti() {
	r := tp.NewRelation("state", "Machine")
	r.Append(tp.Strings("m1"), interval.New(0, 10), 0.9)

	s := tp.NewRelation("service", "Machine")
	s.Append(tp.Strings("m1"), interval.New(4, 7), 0.5)

	for _, t := range core.Join(tp.OpAnti, r, s, tp.Equi(0, 0)).Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('m1', state1, [0,4), 0.9)
	// ('m1', state1, [7,10), 0.9)
	// ('m1', state1 ∧ ¬service1, [4,7), 0.45)
}

// Windows stream through the pipeline without materialization; the three
// classes carry the facts and lineages needed to form output tuples.
func ExampleLAWAN() {
	a := tp.NewRelation("a", "K")
	a.Append(tp.Strings("x"), interval.New(0, 10), 0.5)
	b := tp.NewRelation("b", "K")
	b.Append(tp.Strings("x"), interval.New(2, 5), 0.4)
	b.Append(tp.Strings("x"), interval.New(4, 8), 0.6)

	for _, w := range core.Drain(core.LAWAN(core.LAWAU(core.OverlapJoin(a, b, tp.Equi(0, 0))))) {
		fmt.Printf("%-11s %s %s\n", w.Class(), w.T, w.Ls)
	}
	// Output:
	// unmatched   [0,2) null
	// overlapping [2,5) b1
	// negating    [2,4) b1
	// overlapping [4,8) b2
	// unmatched   [8,10) null
	// negating    [4,5) b1 ∨ b2
	// negating    [5,8) b2
}
