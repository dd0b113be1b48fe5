// Booking reproduces the paper's running example (Fig. 1) end to end: the
// wantsToVisit and hotelAvailability relations, the TP left outer join
// Q = a ⟕Tp b with θ: a.Loc = b.Loc, and the intermediate generalized
// lineage-aware temporal windows of Fig. 2.
//
// Expected output is exactly the seven tuples of Fig. 1b, with
// probabilities 0.70, 0.49, 0.42, 0.21, 0.084, 0.28 and 0.80.
package main

import (
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

func main() {
	// Fig. 1a: the base relations.
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)

	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)

	fmt.Print(a, "\n", b, "\n")

	theta := tp.Equi(1, 1) // a.Loc = b.Loc

	// Fig. 2: the windows of a with respect to b, as the pipeline computes
	// them — the overlap join feeds LAWAU feeds LAWAN.
	fmt.Println("generalized lineage-aware temporal windows of a w.r.t. b:")
	for _, w := range core.Drain(core.LAWAN(core.LAWAU(core.OverlapJoin(a, b, theta)))) {
		fmt.Printf("  %-11s %s\n", w.Class().String()+":", w)
	}

	// Fig. 1b: Q = a ⟕Tp b.
	q := core.Join(tp.OpLeft, a, b, theta)
	fmt.Printf("\nQ = a ⟕Tp b (θ: a.Loc = b.Loc):\n")
	fmt.Printf("%-24s %-20s %-8s %s\n", "Name, Loc, Hotel, Loc", "λ", "T", "p")
	for _, t := range q.Tuples {
		fmt.Printf("%-24s %-20s %-8s %.3g\n", t.Fact.String(), t.Lineage.String(), t.T.String(), t.Prob)
	}

	// Sanity: the windows above are exactly the Table I sets.
	wuon := core.WUON(a, b, theta)
	counts := map[window.Class]int{}
	for _, w := range wuon {
		counts[w.Class()]++
	}
	fmt.Printf("\nwindow counts: %d overlapping, %d unmatched, %d negating (Fig. 2: 2, 2, 3)\n",
		counts[window.Overlapping], counts[window.Unmatched], counts[window.Negating])
}
