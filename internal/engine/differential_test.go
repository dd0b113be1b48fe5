package engine

// The cross-strategy differential harness: every physical join strategy
// (NJ, TA, PNJ, PTA) must compute the same temporal-probabilistic result
// for every join operator on seeded random workloads. The strategies differ
// in output order and in how they fragment time (TA chunks at alignment
// boundaries, NJ at window boundaries), so results are compared in
// canonical form: coalesced (tp.Coalesce merges value-equivalent adjacent
// intervals with structurally equal lineage), sorted, and rendered with
// canonical lineage (lineage.CanonicalString normalizes And/Or operand
// order). After canonicalization the comparison is byte-exact — including
// the lineage formulas — which is what lets future perf PRs refactor any
// one strategy's hot path without silently diverging the semantics the
// paper defines.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/dataset"
	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

// differentialWorkloads are the seeded workloads the harness sweeps: the
// generators behind cmd/tpgen (internal/dataset), two seeds each so the
// comparison is not an artifact of one PRNG stream. Sizes are chosen to
// produce tens of thousands of windows while keeping the TA baseline
// (the slowest strategy by one to two orders of magnitude) testable.
func differentialWorkloads() []struct {
	name  string
	r, s  *tp.Relation
	theta tp.EquiTheta
} {
	type w = struct {
		name  string
		r, s  *tp.Relation
		theta tp.EquiTheta
	}
	var out []w
	for _, seed := range []int64{3, 11} {
		r, s := dataset.Webkit(3000, seed)
		out = append(out, w{fmt.Sprintf("webkit/seed=%d", seed), r, s, dataset.WebkitTheta()})
	}
	for _, seed := range []int64{3, 11} {
		r, s := dataset.Meteo(900, seed)
		out = append(out, w{fmt.Sprintf("meteo/seed=%d", seed), r, s, dataset.MeteoTheta()})
	}
	return out
}

var differentialOps = []tp.Op{tp.OpInner, tp.OpLeft, tp.OpFull, tp.OpAnti}

// runStrategy executes one TP join through the executor under the given
// strategy and returns the result relation.
func runStrategy(t *testing.T, strat Strategy, op tp.Op, r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return runStrategyCfg(t, strat, op, r, s, theta, align.Config{})
}

func runStrategyCfg(t *testing.T, strat Strategy, op tp.Op, r, s *tp.Relation, theta tp.Theta, cfg align.Config) *tp.Relation {
	t.Helper()
	j := NewTPJoin(op, NewScan(r), NewScan(s), theta, strat, cfg)
	if strat == StrategyPNJ || strat == StrategyPTA {
		j.SetWorkers(3)
	}
	out, err := Run(j, "diff")
	if err != nil {
		t.Fatalf("%v/%v: %v", strat, op, err)
	}
	return out
}

// canonicalize renders a join result in strategy-independent form: one
// line per coalesced tuple — fact, canonical lineage, interval and the
// probability rounded to 6 decimals (the strategies sum the same terms in
// different orders, so the last float ulps may differ) — sorted.
func canonicalize(rel *tp.Relation) []string {
	co := tp.Coalesce(rel)
	lines := make([]string, 0, co.Len())
	for _, tu := range co.Tuples {
		parts := make([]string, len(tu.Fact))
		for i, v := range tu.Fact {
			parts[i] = v.String()
		}
		lines = append(lines, fmt.Sprintf("%s | %s | %s | %.6f",
			strings.Join(parts, " | "), lineage.CanonicalString(tu.Lineage), tu.T, tu.Prob))
	}
	sort.Strings(lines)
	return lines
}

func diffLines(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d vs %d coalesced tuples", label, len(want), len(got))
	}
	n := 0
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			t.Errorf("%s: line %d differs:\n  want %s\n  got  %s", label, i, want[i], got[i])
			if n++; n >= 3 {
				t.Fatalf("%s: too many differences, stopping", label)
			}
		}
	}
}

// TestDifferentialStrategies is the harness: NJ is the reference; TA,
// PNJ and PTA must match it byte-for-byte after canonicalization for
// every join operator on every seeded workload.
func TestDifferentialStrategies(t *testing.T) {
	for _, in := range differentialWorkloads() {
		for _, op := range differentialOps {
			ref := canonicalize(runStrategy(t, StrategyNJ, op, in.r, in.s, in.theta))
			if len(ref) == 0 {
				t.Fatalf("%s %v: empty reference result, workload too small", in.name, op)
			}
			for _, strat := range []Strategy{StrategyTA, StrategyPNJ, StrategyPTA} {
				got := canonicalize(runStrategy(t, strat, op, in.r, in.s, in.theta))
				diffLines(t, fmt.Sprintf("%s %v %v-vs-NJ", in.name, op, strat), ref, got)
			}
			// TA under the nested-loop plan runs the same tail over the
			// scalar aligner: the plan Fig. 7a measures is held to the NJ
			// reference at the executor level too.
			nl := canonicalize(runStrategyCfg(t, StrategyTA, op, in.r, in.s, in.theta,
				align.Config{NestedLoop: true}))
			diffLines(t, fmt.Sprintf("%s %v TA/nl-vs-NJ", in.name, op), ref, nl)
		}
	}
}
