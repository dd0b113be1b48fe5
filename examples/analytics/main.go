// Analytics tours the extensions built around the paper's core: TP set
// operations (union/intersect/difference, the authors' companion work),
// lineage-aware duplicate elimination, and BDD-compiled lineages for
// sensitivity analysis.
//
// Scenario: two redundant monitoring systems each predict service
// outages. We fuse them (union), ask where both agree (intersection),
// where only the primary fires (difference), when any service is
// predicted out, and how the fused probability reacts to recalibrating
// one sensor (BDD re-evaluation without recompilation).
package main

import (
	"context"
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
	"tpjoin/internal/setops"
	"tpjoin/internal/tp"
)

func main() {
	// Outage predictions from two monitoring systems.
	m1 := tp.NewRelation("m1", "Service")
	m1.Append(tp.Strings("api"), interval.New(0, 6), 0.30)
	m1.Append(tp.Strings("db"), interval.New(2, 9), 0.20)

	m2 := tp.NewRelation("m2", "Service")
	m2.Append(tp.Strings("api"), interval.New(4, 10), 0.25)
	m2.Append(tp.Strings("cache"), interval.New(1, 5), 0.40)

	ctx := context.Background()

	// Fused view: outage predicted by either system.
	fused, err := setops.Union(ctx, m1, m2)
	check(err)
	fmt.Println("fused outage view (m1 ∪Tp m2):")
	printRel(fused)

	// Consensus: both systems predict the outage.
	both, err := setops.Intersect(ctx, m1, m2)
	check(err)
	fmt.Println("\nconsensus (m1 ∩Tp m2):")
	printRel(both)

	// Only the primary: predicted by m1 and not by m2.
	only, err := setops.Difference(ctx, m1, m2)
	check(err)
	fmt.Println("\nprimary-only (m1 −Tp m2):")
	printRel(only)

	// Lineage-aware projection: on which intervals is *any* service
	// predicted out, regardless of which one?
	anyOut, err := core.ProjectLineage(ctx, fused, nil, nil)
	check(err)
	fmt.Println("\nany-outage timeline (DISTINCT over the empty projection):")
	for _, t := range anyOut.Tuples {
		fmt.Printf("  %-8s p = %.3f   λ = %v\n", t.T, t.Prob, t.Lineage)
	}

	// Sensitivity: compile the fused api lineage over [4,6) once, then
	// re-evaluate under recalibrated probabilities of monitoring system 2.
	var apiLam *lineage.Expr
	for _, t := range fused.Tuples {
		if t.Fact.String() == "api" && t.T.Equal(interval.New(4, 6)) {
			apiLam = t.Lineage
		}
	}
	bdd := prob.CompileBDD(apiLam)
	fmt.Printf("\nsensitivity of Pr(%v) to m2's calibration:\n", apiLam)
	for _, p2 := range []float64{0.1, 0.25, 0.5, 0.9} {
		probs := fused.Probs.Clone()
		probs[lineage.Var{Rel: "m2", ID: 1}] = p2
		fmt.Printf("  p(m2_api) = %.2f  →  Pr = %.4f\n", p2, bdd.Prob(probs))
	}
}

func printRel(rel *tp.Relation) {
	for _, t := range rel.Tuples {
		fmt.Printf("  %-8s %-8s p = %.3f   λ = %v\n", t.Fact, t.T, t.Prob, t.Lineage)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
