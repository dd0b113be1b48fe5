package plan

// The strategy=auto column of the cross-strategy differential harness.
// internal/engine's TestDifferentialStrategies holds NJ, TA, PNJ and PTA
// to one another; this file closes the loop over the planning layer:
// whatever physical strategy the cost-based picker — priced by the
// checked-in measured calibration — routes a workload to, the result a
// default (SET strategy = auto) session computes must equal the forced-NJ
// reference, in the comparer mode of the pick's family. CI gates on this
// test by name; keep it runnable in isolation.

import (
	"fmt"
	"strings"
	"testing"

	"tpjoin/internal/catalog"
	"tpjoin/internal/engine"
	"tpjoin/internal/oracle"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

func runSQLJoin(t *testing.T, cat *catalog.Catalog, sess *Session, src string) *tp.Relation {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	op, err := Build(st.(*sql.Select), cat, sess)
	if err != nil {
		t.Fatalf("build %q: %v", src, err)
	}
	out, err := engine.Run(op, "diff")
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return out
}

// registered returns a catalog holding the workload's r and s.
func registered(t *testing.T, in oracle.Workload) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, rel := range []*tp.Relation{in.R, in.S} {
		if err := cat.Register(rel); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// againstNJ is the comparer for a pick against the forced-NJ reference:
// NJ itself row for row, PNJ as a bag, the TA family across families.
func againstNJ(pick engine.Strategy) func(want, got *tp.Relation) error {
	switch pick {
	case engine.StrategyNJ:
		return oracle.Same
	case engine.StrategyPNJ:
		return oracle.Bag
	default:
		return oracle.Cross
	}
}

func TestDifferentialAutoStrategy(t *testing.T) {
	// The sessions pin join_workers=1, the sequential regime: with many
	// workers the model may legitimately amortize NJ past TA (see
	// DESIGN.md §Cost model), and 0 resolves to the host's GOMAXPROCS.
	// Webkit goes to NJ; Meteo 8000 is past the measured calibration's
	// crossover at seed 11, where every join kind goes to TA.
	workloads := append(oracle.Webkit(3000, 3, 11), oracle.Meteo(8000, 3, 11)...)
	joins := []struct{ name, src string }{
		{"inner", "SELECT * FROM r TP JOIN s ON r.Key = s.Key"},
		{"left", "SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key"},
		{"full", "SELECT * FROM r TP FULL JOIN s ON r.Key = s.Key"},
		{"anti", "SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key"},
	}
	picks := make(map[string][]string)
	sawAlign := make(map[string]bool)
	for _, in := range workloads {
		cat := registered(t, in)
		for _, j := range joins {
			ref := runSQLJoin(t, cat, &Session{Strategy: StrategyNJ}, j.src)
			if ref.Len() == 0 {
				t.Fatalf("%s %s: empty reference result", in.Name, j.name)
			}
			auto := &Session{Workers: 1}
			got := runSQLJoin(t, cat, auto, j.src)
			pick, isAuto, ok := auto.PlannedJoin()
			if !ok || !isAuto {
				t.Fatalf("%s %s: auto session did not record a pick", in.Name, j.name)
			}
			picks[j.name] = append(picks[j.name], fmt.Sprintf("%s→%v", in.Name, pick))
			if pick == engine.StrategyTA || pick == engine.StrategyPTA {
				sawAlign[j.name] = true
			}
			if err := againstNJ(pick)(ref, got); err != nil {
				t.Errorf("%s %s auto(%v) vs NJ: %v", in.Name, j.name, pick, err)
			}
		}
	}
	for _, j := range joins {
		if !sawAlign[j.name] {
			t.Errorf("%s: no workload exercised the TA/PTA pick — the auto column lost its cross-strategy coverage (%s)",
				j.name, strings.Join(picks[j.name], ", "))
		}
	}
}
