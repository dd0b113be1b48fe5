package window

import (
	"math/rand"
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
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

func lv(rel string, id int) *lineage.Expr { return lineage.NewVar(rel, id) }

func TestClass(t *testing.T) {
	ov := Window{Fs: tp.Strings("x"), Ls: lv("b", 1)}
	un := Window{}
	ng := Window{Ls: lv("b", 1)}
	if ov.Class() != Overlapping || un.Class() != Unmatched || ng.Class() != Negating {
		t.Errorf("Class derivation wrong: %v %v %v", ov.Class(), un.Class(), ng.Class())
	}
	if Overlapping.String() != "overlapping" || Unmatched.String() != "unmatched" || Negating.String() != "negating" {
		t.Errorf("Class names wrong")
	}
}

func TestWindowString(t *testing.T) {
	w := Window{
		Fr: tp.Strings("Ann", "ZAK"), Fs: nil,
		T:  interval.New(5, 6),
		Lr: lv("a", 1), Ls: lineage.Or(lv("b", 3), lv("b", 2)),
	}
	want := "('Ann, ZAK', null, [5,6), a1, b3 ∨ b2)"
	if got := w.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestSpecPaperFig2 verifies that the three Spec functions produce exactly
// the seven windows w1..w7 of the paper's Fig. 2.
func TestSpecPaperFig2(t *testing.T) {
	a, b := paperA(), paperB()
	a1, a2 := lv("a", 1), lv("a", 2)
	b2, b3 := lv("b", 2), lv("b", 3)
	ann, jim := tp.Strings("Ann", "ZAK"), tp.Strings("Jim", "WEN")
	h1, h2 := tp.Strings("hotel1", "ZAK"), tp.Strings("hotel2", "ZAK")
	annT, jimT := interval.New(2, 8), interval.New(7, 10)

	wantWU := []Window{
		{Fr: ann, T: interval.New(2, 4), Lr: a1, RID: 0, RT: annT},  // w1
		{Fr: jim, T: interval.New(7, 10), Lr: a2, RID: 1, RT: jimT}, // w2
	}
	wantWO := []Window{
		{Fr: ann, Fs: h2, T: interval.New(5, 8), Lr: a1, Ls: b2, RID: 0, RT: annT}, // w4
		{Fr: ann, Fs: h1, T: interval.New(4, 6), Lr: a1, Ls: b3, RID: 0, RT: annT}, // w3
	}
	wantWN := []Window{
		{Fr: ann, T: interval.New(4, 5), Lr: a1, Ls: b3, RID: 0, RT: annT},                 // w5
		{Fr: ann, T: interval.New(5, 6), Lr: a1, Ls: lineage.Or(b3, b2), RID: 0, RT: annT}, // w6
		{Fr: ann, T: interval.New(6, 8), Lr: a1, Ls: b2, RID: 0, RT: annT},                 // w7
	}

	if got := SpecUnmatched(a, b, theta); !SetEqual(got, wantWU) {
		t.Errorf("SpecUnmatched:\n got %v\nwant %v", got, wantWU)
	}
	if got := SpecOverlapping(a, b, theta); !SetEqual(got, wantWO) {
		t.Errorf("SpecOverlapping:\n got %v\nwant %v", got, wantWO)
	}
	if got := SpecNegating(a, b, theta); !SetEqual(got, wantWN) {
		t.Errorf("SpecNegating:\n got %v\nwant %v", got, wantWN)
	}
}

// TestCheckersAcceptSpec verifies that every spec window passes its
// class's Table I checker, on the paper example and on random inputs.
func TestCheckersAcceptSpec(t *testing.T) {
	verify := func(t *testing.T, r, s *tp.Relation, th tp.EquiTheta) {
		t.Helper()
		for _, w := range SpecOverlapping(r, s, th) {
			if w.Class() != Overlapping || !Check(w, r, s, th) {
				t.Fatalf("spec overlapping window fails checker: %v\nr=%v\ns=%v", w, r, s)
			}
		}
		for _, w := range SpecUnmatched(r, s, th) {
			if w.Class() != Unmatched || !Check(w, r, s, th) {
				t.Fatalf("spec unmatched window fails checker: %v\nr=%v\ns=%v", w, r, s)
			}
		}
		for _, w := range SpecNegating(r, s, th) {
			if w.Class() != Negating || !Check(w, r, s, th) {
				t.Fatalf("spec negating window fails checker: %v\nr=%v\ns=%v", w, r, s)
			}
		}
	}
	verify(t, paperA(), paperB(), theta)

	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		r, s := oracle.Wide.Relation(rng, "r", 1+rng.Intn(5)), oracle.Wide.Relation(rng, "s", 1+rng.Intn(5))
		verify(t, r, s, tp.Equi(0, 0))
	}
}

func TestCheckersRejectPerturbations(t *testing.T) {
	a, b := paperA(), paperB()
	a1 := lv("a", 1)
	b2, b3 := lv("b", 2), lv("b", 3)
	ann := tp.Strings("Ann", "ZAK")
	annT := interval.New(2, 8)

	// Valid w6, then perturbations.
	w6 := Window{Fr: ann, T: interval.New(5, 6), Lr: a1, Ls: lineage.Or(b3, b2), RID: 0, RT: annT}
	if !CheckNegating(w6, a, b, theta) {
		t.Fatalf("w6 must pass CheckNegating")
	}
	badT := w6
	badT.T = interval.New(5, 7) // crosses b3's end
	if CheckNegating(badT, a, b, theta) {
		t.Errorf("interval crossing an event point must fail")
	}
	shortT := w6
	shortT.T = interval.New(5, 5) // empty
	if CheckNegating(shortT, a, b, theta) {
		t.Errorf("empty window must fail")
	}
	badL := w6
	badL.Ls = b3 // wrong λs over [5,6)
	if CheckNegating(badL, a, b, theta) {
		t.Errorf("wrong λs must fail")
	}
	notMax := Window{Fr: ann, T: interval.New(6, 7), Lr: a1, Ls: b2, RID: 0, RT: annT}
	if CheckNegating(notMax, a, b, theta) {
		t.Errorf("non-maximal negating window must fail (extends to [6,8))")
	}

	// Unmatched.
	w1 := Window{Fr: ann, T: interval.New(2, 4), Lr: a1, RID: 0, RT: annT}
	if !CheckUnmatched(w1, a, b, theta) {
		t.Fatalf("w1 must pass CheckUnmatched")
	}
	badU := w1
	badU.T = interval.New(2, 5) // t=4 has b3 valid
	if CheckUnmatched(badU, a, b, theta) {
		t.Errorf("unmatched overlapping a match must fail")
	}
	shortU := w1
	shortU.T = interval.New(2, 3) // not maximal, extends to 4
	if CheckUnmatched(shortU, a, b, theta) {
		t.Errorf("non-maximal unmatched window must fail")
	}
	wrongFact := w1
	wrongFact.Fr = tp.Strings("Bob", "ZAK")
	if CheckUnmatched(wrongFact, a, b, theta) {
		t.Errorf("fact not in r must fail")
	}

	// Overlapping.
	h1 := tp.Strings("hotel1", "ZAK")
	w3 := Window{Fr: ann, Fs: h1, T: interval.New(4, 6), Lr: a1, Ls: b3, RID: 0, RT: annT}
	if !CheckOverlapping(w3, a, b, theta) {
		t.Fatalf("w3 must pass CheckOverlapping")
	}
	badO := w3
	badO.T = interval.New(4, 5) // not the full intersection
	if CheckOverlapping(badO, a, b, theta) {
		t.Errorf("partial intersection must fail")
	}
	badPair := w3
	badPair.Fs = tp.Strings("hotel3", "SOR") // θ violated
	if CheckOverlapping(badPair, a, b, theta) {
		t.Errorf("θ-violating pair must fail")
	}
}

func TestWindowSetsAreDisjointClasses(t *testing.T) {
	// A window passing one checker must not pass another.
	a, b := paperA(), paperB()
	all := append(append(SpecOverlapping(a, b, theta), SpecUnmatched(a, b, theta)...),
		SpecNegating(a, b, theta)...)
	for _, w := range all {
		n := 0
		if CheckOverlapping(w, a, b, theta) {
			n++
		}
		if CheckUnmatched(w, a, b, theta) {
			n++
		}
		if CheckNegating(w, a, b, theta) {
			n++
		}
		if n != 1 {
			t.Errorf("window %v passes %d checkers, want exactly 1", w, n)
		}
	}
}

func TestSortAndSetEqual(t *testing.T) {
	a, b := paperA(), paperB()
	ws := SpecOverlapping(a, b, theta)
	shuffled := append([]Window(nil), ws...)
	shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	if !SetEqual(ws, shuffled) {
		t.Errorf("SetEqual must ignore order")
	}
	Sort(shuffled)
	if !shuffled[0].T.Equal(interval.New(4, 6)) {
		t.Errorf("Sort by (RID, T) wrong: %v", shuffled)
	}
	if SetEqual(ws, ws[:1]) {
		t.Errorf("different sizes must not be SetEqual")
	}
	other := append([]Window(nil), ws...)
	other[0].RID = 99
	if SetEqual(ws, other) {
		t.Errorf("different RID must not be SetEqual")
	}
}
