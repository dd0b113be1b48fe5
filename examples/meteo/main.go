// Meteo runs the paper's sensor workload: predictions that a metric at a
// station stays stable over an interval, joined on the metric alone —
// very few distinct join values, so θ is non-selective and per-key groups
// are large (the property that makes Meteo the hard case in the paper's
// evaluation). The example answers a monitoring question with a TP anti
// join and shows the SQL route through the engine.
package main

import (
	"fmt"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/core"
	"tpjoin/internal/dataset"
	"tpjoin/internal/engine"
	"tpjoin/internal/plan"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

func main() {
	r, s := dataset.Meteo(20000, 3)
	theta := dataset.MeteoTheta()
	fmt.Printf("meteo workload: %d + %d tuples, join on metric (40 distinct values)\n",
		r.Len(), s.Len())

	// With which probability does a stability prediction in r hold while
	// *no* station in s predicts the same metric stable? (TP anti join.)
	t0 := time.Now()
	anti := core.Join(tp.OpAnti, r, s, theta)
	fmt.Printf("TP anti join: %d tuples in %.1f ms\n",
		anti.Len(), float64(time.Since(t0))/1e6)

	// The same query through the SQL engine.
	cat := catalog.New()
	must(cat.Register(r))
	must(cat.Register(s))
	sess := &plan.Session{}

	stmt, err := sql.Parse("SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key LIMIT 5")
	must(err)
	op, err := plan.Build(stmt.(*sql.Select), cat, sess)
	must(err)
	out, err := engine.Run(op, "q")
	must(err)
	fmt.Println("\nSELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key LIMIT 5:")
	for _, t := range out.Tuples {
		fmt.Printf("  %v\n", t)
	}

	// EXPLAIN shows the pipelined plan.
	ex, err := sql.Parse("EXPLAIN SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key")
	must(err)
	text, err := plan.Explain(ex.(*sql.Explain).Query, cat, sess, false)
	must(err)
	fmt.Println("\nEXPLAIN:")
	fmt.Print(text)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
