// Quickstart: build two small temporal-probabilistic relations, run a TP
// anti join and a full outer join and print the results. This is the
// 30-second tour of the public API: tp.Relation for data, tp.Equi for θ,
// core.Join with a tp.Op for the paper's NJ algorithm.
package main

import (
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

func main() {
	// Sensors predict that a machine is in a given state over an interval.
	state := tp.NewRelation("state", "Machine", "State")
	state.Append(tp.Strings("m1", "running"), interval.New(0, 10), 0.9)
	state.Append(tp.Strings("m2", "running"), interval.New(3, 12), 0.8)

	// Maintenance windows claim the machine is serviced (and must be off).
	service := tp.NewRelation("service", "Tech", "Machine")
	service.Append(tp.Strings("alice", "m1"), interval.New(4, 7), 0.7)

	// With which probability is a machine running *and not* under
	// maintenance, at each time point? A TP anti join answers that.
	theta := tp.Equi(0, 1) // state.Machine = service.Machine
	q := core.Join(tp.OpAnti, state, service, theta)

	fmt.Println("state ▷ service (running with no service claim):")
	for _, t := range q.Tuples {
		fmt.Printf("  %-24s  λ = %-18s  T = %-8s  p = %.3f\n",
			t.Fact, t.Lineage, t.T, t.Prob)
	}

	// The full outer join additionally pairs matching claims and keeps
	// service claims with no state prediction.
	full := core.Join(tp.OpFull, state, service, theta)
	fmt.Printf("\nstate ⟗ service has %d result tuples; e.g.:\n", full.Len())
	fmt.Printf("  %v\n", full.Tuples[0])
}
