package core

import (
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
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

func TestOverlapJoinMatchesSpec(t *testing.T) {
	a, b := paperA(), paperB()
	got := Drain(OverlapJoin(a, b, theta))
	// Expected: spec overlapping windows + base unmatched for Jim.
	want := window.SpecOverlapping(a, b, theta)
	want = append(want, window.Window{
		Fr: tp.Strings("Jim", "WEN"), T: interval.New(7, 10),
		Lr: lineage.NewVar("a", 2), RID: 1, RT: interval.New(7, 10),
	})
	if !window.SetEqual(got, want) {
		t.Errorf("OverlapJoin:\n got %v\nwant %v", got, want)
	}
}

func TestOverlapJoinGroupedAndSorted(t *testing.T) {
	a, b := paperA(), paperB()
	got := Drain(OverlapJoin(a, b, theta))
	seen := make(map[int]bool)
	lastRID := -1
	var lastStart interval.Time
	for _, w := range got {
		if w.RID != lastRID {
			if seen[w.RID] {
				t.Fatalf("group %d appears twice in stream", w.RID)
			}
			seen[w.RID] = true
			lastRID = w.RID
			lastStart = w.T.Start
			continue
		}
		if w.T.Start < lastStart {
			t.Fatalf("group %d not sorted by start: %v", w.RID, got)
		}
		lastStart = w.T.Start
	}
}

func TestLAWAUPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	got := Drain(LAWAU(OverlapJoin(a, b, theta)))
	want := append(window.SpecOverlapping(a, b, theta), window.SpecUnmatched(a, b, theta)...)
	if !window.SetEqual(got, want) {
		t.Errorf("LAWAU:\n got %v\nwant %v", got, want)
	}
}

func TestLAWANPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	got := Drain(LAWAN(LAWAU(OverlapJoin(a, b, theta))))
	want := append(window.SpecOverlapping(a, b, theta), window.SpecUnmatched(a, b, theta)...)
	want = append(want, window.SpecNegating(a, b, theta)...)
	if !window.SetEqual(got, want) {
		t.Errorf("LAWAN:\n got %v\nwant %v", got, want)
	}
}

// TestPaperExampleFig1b is the golden test: the TP left outer join of the
// running example must produce exactly the seven tuples of Fig. 1b.
func TestPaperExampleFig1b(t *testing.T) {
	a, b := paperA(), paperB()
	q := Join(tp.OpLeft, a, b, theta)

	type row struct {
		fact string
		lam  string
		iv   string
		p    float64
	}
	want := []row{
		{"Ann, ZAK, -, -", "a1", "[2,4)", 0.70},
		{"Ann, ZAK, hotel1, ZAK", "a1 ∧ b3", "[4,6)", 0.49},
		{"Ann, ZAK, hotel2, ZAK", "a1 ∧ b2", "[5,8)", 0.42},
		{"Ann, ZAK, -, -", "a1 ∧ ¬b3", "[4,5)", 0.21},
		{"Ann, ZAK, -, -", "a1 ∧ ¬(b3 ∨ b2)", "[5,6)", 0.084},
		{"Ann, ZAK, -, -", "a1 ∧ ¬b2", "[6,8)", 0.28},
		{"Jim, WEN, -, -", "a2", "[7,10)", 0.80},
	}
	if q.Len() != len(want) {
		t.Fatalf("result has %d tuples, want %d:\n%v", q.Len(), len(want), q)
	}
	match := func(w row) bool {
		for _, tu := range q.Tuples {
			if tu.Fact.String() == w.fact && tu.Lineage.String() == w.lam &&
				tu.T.String() == w.iv {
				if d := tu.Prob - w.p; d > -1e-9 && d < 1e-9 {
					return true
				}
			}
		}
		return false
	}
	for _, w := range want {
		if !match(w) {
			t.Errorf("missing Fig. 1b tuple ('%s', %s, %s, %g)\ngot:\n%v",
				w.fact, w.lam, w.iv, w.p, q)
		}
	}
}

func TestAntiJoinPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	q := Join(tp.OpAnti, a, b, theta)
	// Expected: Ann [2,4) 0.7; [4,5) 0.21; [5,6) 0.084; [6,8) 0.28; Jim [7,10) 0.8.
	if q.Len() != 5 {
		t.Fatalf("anti join has %d tuples, want 5:\n%v", q.Len(), q)
	}
	for _, tu := range q.Tuples {
		if len(tu.Fact) != 2 {
			t.Errorf("anti join schema must be r's, got fact %v", tu.Fact)
		}
	}
	if err := oracle.PointWise(tp.RefJoin(tp.OpAnti, a, b, theta), q); err != nil {
		t.Errorf("anti join differs from reference: %v", err)
	}
}

func TestAllOperatorsAgainstReference(t *testing.T) {
	a, b := paperA(), paperB()
	for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
		q, ref := Join(op, a, b, theta), tp.RefJoin(op, a, b, theta)
		if err := oracle.PointWise(ref, q); err != nil {
			t.Errorf("%v differs from reference: %v", op, err)
		}
		pm, _ := tp.Expand(q)
		if err := pm.EqualLineage(ref); err != nil {
			t.Errorf("%v lineages differ from reference: %v", op, err)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	a, b := paperA(), paperB()
	empty := tp.NewRelation("e", "X", "Loc")

	q := Join(tp.OpLeft, empty, b, theta)
	if q.Len() != 0 {
		t.Errorf("empty ⟕ b must be empty, got %v", q)
	}
	q = Join(tp.OpLeft, a, tp.NewRelation("e", "Hotel", "Loc"), theta)
	if q.Len() != a.Len() {
		t.Errorf("a ⟕ empty must preserve a's tuples, got %d", q.Len())
	}
	for _, tu := range q.Tuples {
		if tu.Lineage.Kind() != lineage.KindVar {
			t.Errorf("unmatched lineage must be the base event, got %v", tu.Lineage)
		}
	}
	q = Join(tp.OpAnti, a, tp.NewRelation("e", "Hotel", "Loc"), theta)
	if q.Len() != a.Len() {
		t.Errorf("a ▷ empty must equal a")
	}
	q = Join(tp.OpFull, empty, b, theta)
	if q.Len() != b.Len() {
		t.Errorf("empty ⟗ b must preserve b, got %d", q.Len())
	}
}

func TestAdjacentIntervalsProduceNoOverlap(t *testing.T) {
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("k"), interval.New(0, 5), 0.5)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("k"), interval.New(5, 9), 0.5)
	q := Join(tp.OpLeft, r, s, tp.Equi(0, 0))
	if q.Len() != 1 {
		t.Fatalf("meets-only tuples must not join: %v", q)
	}
	if !q.Tuples[0].T.Equal(interval.New(0, 5)) {
		t.Errorf("unmatched interval wrong: %v", q.Tuples[0].T)
	}
}

func TestContainedMatch(t *testing.T) {
	// s tuple strictly inside r: unmatched head and tail plus negating middle.
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("k"), interval.New(0, 10), 0.5)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("k"), interval.New(3, 6), 0.4)
	q := Join(tp.OpAnti, r, s, tp.Equi(0, 0))
	if err := oracle.PointWise(tp.RefJoin(tp.OpAnti, r, s, tp.Equi(0, 0)), q); err != nil {
		t.Errorf("contained match: %v", err)
	}
	if q.Len() != 3 {
		t.Errorf("want 3 output tuples (head, negated middle, tail), got %v", q)
	}
}

func TestMultipleRTuplesSameFact(t *testing.T) {
	// Two disjoint r tuples with the same fact: groups must not merge.
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("k"), interval.New(0, 4), 0.5)
	r.Append(tp.Strings("k"), interval.New(6, 9), 0.6)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("k"), interval.New(2, 8), 0.4)
	q := Join(tp.OpLeft, r, s, tp.Equi(0, 0))
	if err := oracle.PointWise(tp.RefJoin(tp.OpLeft, r, s, tp.Equi(0, 0)), q); err != nil {
		t.Errorf("same-fact groups: %v", err)
	}
}

// TestSweepsMatchSpecRandom is the central property test: on random
// databases, the pipelined LAWAU/LAWAN output must equal the set-level
// specification of the three window sets, and every window must satisfy
// its Table I checker.
func TestSweepsMatchSpecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	eq := tp.Equi(0, 0)
	for trial := 0; trial < 150; trial++ {
		r := oracle.Small.Relation(rng, "r", rng.Intn(7))
		s := oracle.Small.Relation(rng, "s", rng.Intn(7))

		gotWUO := Drain(LAWAU(OverlapJoin(r, s, eq)))
		wantWUO := append(window.SpecOverlapping(r, s, eq), window.SpecUnmatched(r, s, eq)...)
		if !window.SetEqual(gotWUO, wantWUO) {
			t.Fatalf("trial %d: WUO mismatch\n got %v\nwant %v\nr=%v\ns=%v",
				trial, gotWUO, wantWUO, r, s)
		}

		gotAll := Drain(LAWAN(NewSliceIterator(gotWUO)))
		wantAll := append(wantWUO, window.SpecNegating(r, s, eq)...)
		if !window.SetEqual(gotAll, wantAll) {
			t.Fatalf("trial %d: WUON mismatch\n got %v\nwant %v\nr=%v\ns=%v",
				trial, gotAll, wantAll, r, s)
		}

		for _, w := range gotAll {
			if !window.Check(w, r, s, eq) {
				t.Fatalf("trial %d: window fails Table I checker: %v\nr=%v\ns=%v",
					trial, w, r, s)
			}
		}
	}
}

// TestOperatorsMatchReferenceRandom validates all five operators point-wise
// against the declarative semantics on random databases.
func TestOperatorsMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	eq := tp.Equi(0, 0)
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for trial := 0; trial < 80; trial++ {
		r := oracle.Small.Relation(rng, "r", rng.Intn(7))
		s := oracle.Small.Relation(rng, "s", rng.Intn(7))
		op := ops[trial%len(ops)]
		q := Join(op, r, s, eq)
		if err := oracle.PointWise(tp.RefJoin(op, r, s, eq), q); err != nil {
			t.Fatalf("trial %d %v: %v\nr=%v\ns=%v\nq=%v", trial, op, err, r, s, q)
		}
	}
}

func TestCountAndDrain(t *testing.T) {
	a, b := paperA(), paperB()
	n := Count(LAWAN(LAWAU(OverlapJoin(a, b, theta))))
	if n != 7 {
		t.Errorf("Count = %d, want 7 windows (Fig. 2)", n)
	}
	ws := WUON(a, b, theta)
	if len(ws) != 7 {
		t.Errorf("WUON = %d windows, want 7", len(ws))
	}
	if len(WUO(a, b, theta)) != 4 {
		t.Errorf("WUO must have 4 windows (w1..w4)")
	}
}

func TestJoinPanicsOnUnknownOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Join(tp.Op(99), paperA(), paperB(), theta)
}
