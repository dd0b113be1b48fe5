package engine

import (
	"strings"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

func paperA() *tp.Relation {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	return a
}

func paperB() *tp.Relation {
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	return b
}

var theta = tp.Equi(1, 1)

func TestScan(t *testing.T) {
	a := paperA()
	s := Instrument(NewScan(a))
	out, err := Run(s, "q")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Len() != 2 || s.OpStats().Rows != 2 {
		t.Errorf("scan rows = %d stats = %d", out.Len(), s.OpStats().Rows)
	}
	if len(out.Probs) != 2 {
		t.Errorf("probs must flow through Run")
	}
	// Re-open resets.
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Next(); !ok {
		t.Errorf("re-opened scan must produce tuples")
	}
}

func TestFilter(t *testing.T) {
	f := NewFilter(NewScan(paperA()), func(tu tp.Tuple) bool {
		return tu.Fact[1].AsString() == "ZAK"
	})
	out, err := Run(f, "q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0].Fact[0].AsString() != "Ann" {
		t.Errorf("filter wrong: %v", out)
	}
}

func TestProject(t *testing.T) {
	p, err := NewProject(NewScan(paperA()), []int{1}, []string{"Loc"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(p, "q")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Attrs) != 1 || out.Attrs[0] != "Loc" {
		t.Errorf("project attrs wrong: %v", out.Attrs)
	}
	if out.Tuples[0].Fact.String() != "ZAK" {
		t.Errorf("project fact wrong: %v", out.Tuples[0].Fact)
	}
}

func TestProjectValidation(t *testing.T) {
	if _, err := NewProject(NewScan(paperA()), []int{0, 1}, []string{"x"}); err == nil {
		t.Errorf("arity mismatch must error")
	}
	if _, err := NewProject(NewScan(paperA()), []int{5}, []string{"x"}); err == nil {
		t.Errorf("out-of-range column must error")
	}
}

func TestLimit(t *testing.T) {
	l := NewLimit(NewScan(paperB()), 2)
	out, err := Run(l, "q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("limit produced %d", out.Len())
	}
}

func TestSortOperator(t *testing.T) {
	byStart := func(a, b tp.Tuple) bool { return a.T.Less(b.T) }
	s := NewSort(NewScan(paperB()), byStart)
	out, err := Run(s, "q")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tuples[0].T.Equal(interval.New(1, 4)) {
		t.Errorf("sort wrong: %v", out.Tuples[0])
	}
	byFact := func(a, b tp.Tuple) bool { return a.Fact.Compare(b.Fact) < 0 }
	s2 := NewSort(NewScan(paperB()), byFact)
	out2, _ := Run(s2, "q")
	if out2.Tuples[0].Fact[0].AsString() != "hotel1" {
		t.Errorf("fact sort wrong: %v", out2.Tuples[0])
	}
}

func TestTPJoinNJMatchesCore(t *testing.T) {
	for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
		j := NewTPJoin(op, NewScan(paperA()), NewScan(paperB()), theta, StrategyNJ, align.Config{})
		out, err := Run(j, "q")
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if err := oracle.PointWise(tp.RefJoin(op, paperA(), paperB(), theta), out); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestTPJoinTAMatchesReference(t *testing.T) {
	j := NewTPJoin(tp.OpLeft, NewScan(paperA()), NewScan(paperB()), theta, StrategyTA, align.Config{})
	out, err := Run(j, "q")
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.PointWise(tp.RefJoin(tp.OpLeft, paperA(), paperB(), theta), out); err != nil {
		t.Errorf("TA join: %v", err)
	}
}

func TestTPJoinPNJMatchesReference(t *testing.T) {
	for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
		j := NewTPJoin(op, NewScan(paperA()), NewScan(paperB()), theta, StrategyPNJ, align.Config{})
		j.SetWorkers(3)
		out, err := Run(j, "q")
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if err := oracle.PointWise(tp.RefJoin(op, paperA(), paperB(), theta), out); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestTPJoinPNJDeterministicOrder(t *testing.T) {
	mk := func() *TPJoin {
		j := NewTPJoin(tp.OpLeft, NewScan(paperA()), NewScan(paperB()), theta, StrategyPNJ, align.Config{})
		j.SetWorkers(4)
		return j
	}
	a, err := Run(mk(), "q")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), "q")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic sizes: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Fact.Equal(b.Tuples[i].Fact) || !a.Tuples[i].T.Equal(b.Tuples[i].T) {
			t.Fatalf("tuple %d order differs between runs", i)
		}
	}
}

func TestTPJoinOverDerivedChild(t *testing.T) {
	// Join whose left child is a filter (not a bare scan): the child is
	// drained into a temporary relation carrying its probs.
	f := NewFilter(NewScan(paperA()), func(tu tp.Tuple) bool {
		return tu.Fact[0].AsString() == "Ann"
	})
	j := NewTPJoin(tp.OpLeft, f, NewScan(paperB()), theta, StrategyNJ, align.Config{})
	out, err := Run(j, "q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Errorf("Ann-only left join must have 6 tuples (Fig. 1b minus Jim), got %d:\n%v", out.Len(), out)
	}
}

func TestTPJoinAntiSchema(t *testing.T) {
	j := NewTPJoin(tp.OpAnti, NewScan(paperA()), NewScan(paperB()), theta, StrategyNJ, align.Config{})
	if len(j.Attrs()) != 2 {
		t.Errorf("anti join schema must be left child's, got %v", j.Attrs())
	}
}

func TestStrategyString(t *testing.T) {
	for _, tc := range []struct {
		s        Strategy
		name     string
		family   Strategy
		parallel bool
	}{
		{StrategyNJ, "NJ", StrategyNJ, false},
		{StrategyTA, "TA", StrategyTA, false},
		{StrategyPNJ, "PNJ", StrategyNJ, true},
		{StrategyPTA, "PTA", StrategyTA, true},
	} {
		if tc.s.String() != tc.name || tc.s.Family() != tc.family || tc.s.Parallel() != tc.parallel {
			t.Errorf("%d: String/Family/Parallel = %s/%s/%t, want %s/%s/%t", tc.s,
				tc.s, tc.s.Family(), tc.s.Parallel(), tc.name, tc.family, tc.parallel)
		}
	}
	if NumStrategies != 4 {
		t.Errorf("NumStrategies = %d, want 4", NumStrategies)
	}
	if got := Strategy(NumStrategies).String(); !strings.HasPrefix(got, "strategy(") {
		t.Errorf("Strategy(NumStrategies) = %q, want the out-of-range form", got)
	}
}

func TestPipelineComposition(t *testing.T) {
	// SELECT Name FROM (a TP LEFT JOIN b ON Loc=Loc) WHERE Hotel IS NULL LIMIT 3
	j := NewTPJoin(tp.OpLeft, NewScan(paperA()), NewScan(paperB()), theta, StrategyNJ, align.Config{})
	f := NewFilter(j, func(tu tp.Tuple) bool { return tu.Fact[2].IsNull() })
	p, err := NewProject(f, []int{0}, []string{"Name"})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLimit(p, 3)
	out, err := Run(l, "q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("pipeline produced %d tuples, want 3", out.Len())
	}
	for _, tu := range out.Tuples {
		if len(tu.Fact) != 1 {
			t.Errorf("projection not applied: %v", tu.Fact)
		}
	}
}
