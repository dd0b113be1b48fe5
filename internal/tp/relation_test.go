package tp

import (
	"math"
	"strings"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
)

// PaperRelations builds the base relations a (wantsToVisit) and
// b (hotelAvailability) of Fig. 1a. Shared by several test packages via
// export_test-style helpers in each package; duplicated knowingly.
func paperA() *Relation {
	a := NewRelation("a", "Name", "Loc")
	a.Append(Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	return a
}

func paperB() *Relation {
	b := NewRelation("b", "Hotel", "Loc")
	b.Append(Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	return b
}

func TestAppendAssignsVariables(t *testing.T) {
	a := paperA()
	if a.Len() != 2 {
		t.Fatalf("Len = %d", a.Len())
	}
	if got := a.Tuples[0].Lineage.String(); got != "a1" {
		t.Errorf("first lineage = %q, want a1", got)
	}
	if got := a.Tuples[1].Lineage.String(); got != "a2" {
		t.Errorf("second lineage = %q, want a2", got)
	}
	if p := a.Probs[lineage.Var{Rel: "a", ID: 2}]; p != 0.8 {
		t.Errorf("prob of a2 = %g, want 0.8", p)
	}
	if a.Arity() != 2 {
		t.Errorf("Arity = %d", a.Arity())
	}
}

func TestAppendValidation(t *testing.T) {
	r := NewRelation("r", "X")
	cases := []func(){
		func() { r.Append(Strings("a", "b"), interval.New(0, 1), 0.5) },   // arity
		func() { r.Append(Strings("a"), interval.New(0, 1), 1.5) },        // prob
		func() { r.Append(Strings("a"), interval.New(0, 1), math.NaN()) }, // NaN prob
		func() { r.Append(Strings("a"), interval.New(3, 3), 0.5) },        // empty interval
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValidateSequenced(t *testing.T) {
	a := paperA()
	if err := a.ValidateSequenced(); err != nil {
		t.Errorf("paper relation a must be valid: %v", err)
	}
	b := paperB()
	if err := b.ValidateSequenced(); err != nil {
		t.Errorf("paper relation b must be valid: %v", err)
	}

	bad := NewRelation("r", "X")
	bad.Append(Strings("k"), interval.New(0, 5), 0.5)
	bad.Append(Strings("k"), interval.New(3, 8), 0.5)
	if err := bad.ValidateSequenced(); err == nil {
		t.Errorf("overlapping same-fact tuples must be rejected")
	}

	ok := NewRelation("r", "X")
	ok.Append(Strings("k"), interval.New(0, 5), 0.5)
	ok.Append(Strings("k"), interval.New(5, 8), 0.5) // adjacent is fine
	ok.Append(Strings("m"), interval.New(0, 8), 0.5) // other fact overlaps fine
	if err := ok.ValidateSequenced(); err != nil {
		t.Errorf("adjacent/different facts must be accepted: %v", err)
	}
}

func TestValidateNullLineage(t *testing.T) {
	r := NewRelation("r", "X")
	r.AppendDerived(Strings("k"), nil, interval.New(0, 1), 0)
	if err := r.ValidateSequenced(); err == nil || !strings.Contains(err.Error(), "null lineage") {
		t.Errorf("null lineage must be rejected, got %v", err)
	}
}

func TestSortByStart(t *testing.T) {
	r := NewRelation("r", "X")
	r.Append(Strings("b"), interval.New(5, 6), 0.5)
	r.Append(Strings("a"), interval.New(2, 9), 0.5)
	r.SortByStart()
	if r.Tuples[0].T.Start != 2 {
		t.Fatalf("SortByStart wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := paperA()
	c := a.Clone()
	c.Append(Strings("X", "Y"), interval.New(0, 1), 0.1)
	c.Attrs[0] = "Changed"
	if a.Len() != 2 || a.Attrs[0] != "Name" {
		t.Errorf("Clone aliases the original")
	}
}

func TestMergeProbs(t *testing.T) {
	a, b := paperA(), paperB()
	m := MergeProbs(a, b)
	if len(m) != 5 {
		t.Errorf("merged probs size = %d, want 5", len(m))
	}
	if m[lineage.Var{Rel: "b", ID: 3}] != 0.7 {
		t.Errorf("b3 prob wrong")
	}
}

func TestMergeProbsConflictPanics(t *testing.T) {
	r1 := NewRelation("x", "A")
	r1.Append(Strings("k"), interval.New(0, 1), 0.5)
	r2 := NewRelation("x", "A")
	r2.Append(Strings("k"), interval.New(0, 1), 0.6)
	defer func() {
		if recover() == nil {
			t.Fatalf("conflicting probabilities must panic")
		}
	}()
	MergeProbs(r1, r2)
}

func TestRelationString(t *testing.T) {
	a := paperA()
	s := a.String()
	if !strings.Contains(s, "a(Name, Loc)") || !strings.Contains(s, "'Ann, ZAK', a1, [2,8), 0.7") {
		t.Errorf("String rendering unexpected:\n%s", s)
	}
}

func TestThetaEqui(t *testing.T) {
	theta := Equi(1, 1) // Loc = Loc
	ann := Strings("Ann", "ZAK")
	h1 := Strings("hotel1", "ZAK")
	h3 := Strings("hotel3", "SOR")
	if !theta.Match(ann, h1) {
		t.Errorf("ZAK = ZAK must match")
	}
	if theta.Match(ann, h3) {
		t.Errorf("ZAK = SOR must not match")
	}
	if theta.Match(Fact{String_("Ann"), Null()}, h1) {
		t.Errorf("NULL must not match anything")
	}
	k1, ok1 := theta.RKeyHash(ann)
	k2, ok2 := theta.SKeyHash(h1)
	if !ok1 || !ok2 || k1 != k2 || !theta.Match(ann, h1) {
		t.Errorf("equal keys expected: %x vs %x", k1, k2)
	}
	if _, ok := theta.RKeyHash(Fact{String_("x"), Null()}); ok {
		t.Errorf("NULL key must be reported unmatchable")
	}
	k3, _ := theta.SKeyHash(h3)
	if k1 == k3 || theta.Match(ann, h3) {
		t.Errorf("different join values must produce different keys")
	}
}

func TestThetaMultiColumn(t *testing.T) {
	theta := EquiTheta{RCols: []int{0, 1}, SCols: []int{1, 0}}
	if !theta.Match(Strings("x", "y"), Strings("y", "x")) {
		t.Errorf("cross-column equality failed")
	}
	if theta.Match(Strings("x", "y"), Strings("x", "y")) {
		t.Errorf("should not match")
	}
}

func TestExpand(t *testing.T) {
	a := paperA()
	pm, err := Expand(a)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	annKey := Strings("Ann", "ZAK").Key()
	if len(pm[annKey]) != 6 {
		t.Errorf("Ann valid over 6 points, got %d", len(pm[annKey]))
	}
	row := pm[annKey][3]
	if row.Prob != 0.7 {
		t.Errorf("prob at t=3 = %g", row.Prob)
	}
	// Duplicate at a time point must error.
	bad := NewRelation("r", "X")
	bad.Append(Strings("k"), interval.New(0, 5), 0.5)
	bad.Append(Strings("k"), interval.New(3, 8), 0.5)
	if _, err := Expand(bad); err == nil {
		t.Errorf("Expand must reject duplicated fact/time")
	}
}

func TestEqualProb(t *testing.T) {
	a := paperA()
	pm1, _ := Expand(a)
	pm2, _ := Expand(paperA())
	if err := pm1.EqualProb(pm2, 1e-12); err != nil {
		t.Errorf("identical expansions must be equal: %v", err)
	}
	// Perturb.
	b := paperA()
	b.Tuples[0].Prob = 0.7 // Prob field is ignored by Expand; change interval instead
	b.Tuples[0].T = interval.New(2, 9)
	pm3, _ := Expand(b)
	if err := pm1.EqualProb(pm3, 1e-12); err == nil {
		t.Errorf("different expansions must differ")
	}
}

func TestRefJoinPaperExample(t *testing.T) {
	a, b := paperA(), paperB()
	theta := Equi(1, 1)
	got := RefJoin(OpLeft, a, b, theta)

	// Fig. 1b, checked point-wise.
	check := func(f Fact, tt interval.Time, wantP float64) {
		t.Helper()
		row, ok := got[f.Key()][tt]
		if !ok {
			t.Fatalf("missing fact '%s' at %d", f, tt)
		}
		if d := row.Prob - wantP; d < -1e-9 || d > 1e-9 {
			t.Fatalf("fact '%s' at %d: prob %g, want %g", f, tt, row.Prob, wantP)
		}
	}
	annNull := Strings("Ann", "ZAK").Concat(Nulls(2))
	annH1 := Strings("Ann", "ZAK").Concat(Strings("hotel1", "ZAK"))
	annH2 := Strings("Ann", "ZAK").Concat(Strings("hotel2", "ZAK"))
	jimNull := Strings("Jim", "WEN").Concat(Nulls(2))

	check(annNull, 2, 0.70)
	check(annNull, 3, 0.70)
	check(annH1, 4, 0.49)
	check(annH1, 5, 0.49)
	check(annH2, 5, 0.42)
	check(annH2, 7, 0.42)
	check(annNull, 4, 0.21)
	check(annNull, 5, 0.084)
	check(annNull, 6, 0.28)
	check(annNull, 7, 0.28)
	for tt := interval.Time(7); tt < 10; tt++ {
		check(jimNull, tt, 0.80)
	}
	// Nothing for Ann outside [2,8).
	if _, ok := got[annNull.Key()][8]; ok {
		t.Errorf("Ann must not be in result at t=8")
	}
}

func TestRefJoinAnti(t *testing.T) {
	a, b := paperA(), paperB()
	got := RefJoin(OpAnti, a, b, Equi(1, 1))
	ann := Strings("Ann", "ZAK")
	row, ok := got[ann.Key()][5]
	if !ok {
		t.Fatalf("anti join must retain Ann at t=5")
	}
	if d := row.Prob - 0.084; d < -1e-9 || d > 1e-9 {
		t.Errorf("anti prob at 5 = %g, want 0.084", row.Prob)
	}
	// Anti join output facts have r's arity only.
	if len(row.Fact) != 2 {
		t.Errorf("anti join fact arity = %d, want 2", len(row.Fact))
	}
	// No pairings in an anti join result.
	annH1 := ann.Concat(Strings("hotel1", "ZAK"))
	if _, ok := got[annH1.Key()]; ok {
		t.Errorf("anti join must not contain pairings")
	}
}

func TestRefJoinFullSymmetry(t *testing.T) {
	a, b := paperA(), paperB()
	theta := Equi(1, 1)
	full := RefJoin(OpFull, a, b, theta)
	// hotel3 (SOR) matches nothing: present with its own lineage.
	h3 := Nulls(2).Concat(Strings("hotel3", "SOR"))
	row, ok := full[h3.Key()][2]
	if !ok {
		t.Fatalf("full outer join must preserve hotel3")
	}
	if row.Prob != 0.9 {
		t.Errorf("hotel3 prob = %g", row.Prob)
	}
	// hotel1 under Ann's validity: negated by a1 → 0.7·0.3 = 0.21.
	h1 := Nulls(2).Concat(Strings("hotel1", "ZAK"))
	row, ok = full[h1.Key()][4]
	if !ok {
		t.Fatalf("full outer join must have negated hotel1 at t=4")
	}
	if d := row.Prob - 0.7*0.3; d < -1e-9 || d > 1e-9 {
		t.Errorf("negated hotel1 prob = %g, want 0.21", row.Prob)
	}
}

func TestRefJoinInner(t *testing.T) {
	a, b := paperA(), paperB()
	inner := RefJoin(OpInner, a, b, Equi(1, 1))
	annNull := Strings("Ann", "ZAK").Concat(Nulls(2))
	if _, ok := inner[annNull.Key()]; ok {
		t.Errorf("inner join must not contain unmatched/negated rows")
	}
	annH1 := Strings("Ann", "ZAK").Concat(Strings("hotel1", "ZAK"))
	if _, ok := inner[annH1.Key()][4]; !ok {
		t.Errorf("inner join must contain the pairing at t=4")
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpInner: "inner", OpAnti: "anti", OpLeft: "left-outer",
		OpRight: "right-outer", OpFull: "full-outer",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("Op(%d).String = %q, want %q", op, op.String(), want)
		}
	}
}
