package setops_test

import (
	"context"
	"fmt"

	"tpjoin/internal/interval"
	"tpjoin/internal/setops"
	"tpjoin/internal/tp"
)

// Two sensors report the same fact over overlapping intervals; the TP
// union holds when either report does.
func ExampleUnion() {
	r := tp.NewRelation("r", "Service")
	r.Append(tp.Strings("api"), interval.New(0, 6), 0.3)
	s := tp.NewRelation("s", "Service")
	s.Append(tp.Strings("api"), interval.New(4, 10), 0.25)

	u, _ := setops.Union(context.Background(), r, s)
	for _, t := range u.Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('api', r1, [0,4), 0.3)
	// ('api', r1 ∨ s1, [4,6), 0.475)
	// ('api', s1, [6,10), 0.25)
}

// The TP difference is the anti join with full-fact equality: the
// probability the fact holds in r and not in s, per time point.
func ExampleDifference() {
	r := tp.NewRelation("r", "Service")
	r.Append(tp.Strings("api"), interval.New(0, 6), 0.3)
	s := tp.NewRelation("s", "Service")
	s.Append(tp.Strings("api"), interval.New(4, 10), 0.25)

	d, _ := setops.Difference(context.Background(), r, s)
	for _, t := range d.Tuples {
		fmt.Println(t)
	}
	// Output:
	// ('api', r1, [0,4), 0.3)
	// ('api', r1 ∧ ¬s1, [4,6), 0.225)
}
