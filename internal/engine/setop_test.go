package engine

import (
	"testing"

	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

func setopDemo() (*tp.Relation, *tp.Relation) {
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("x"), interval.New(0, 6), 0.8)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("x"), interval.New(3, 9), 0.4)
	return r, s
}

func TestTPSetOpUnion(t *testing.T) {
	r, s := setopDemo()
	op := NewTPSetOp(SetUnion, NewScan(r), NewScan(s))
	inst := Instrument(op)
	out, err := Run(inst, "u")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("union rows = %d, want 3:\n%v", out.Len(), out)
	}
	if op.Kind() != SetUnion || len(op.Children()) != 2 {
		t.Errorf("accessors wrong")
	}
	if inst.OpStats().Rows != 3 {
		t.Errorf("stats rows = %d", inst.OpStats().Rows)
	}
	if len(op.Probs()) != 2 {
		t.Errorf("probs must merge both sides")
	}
}

func TestTPSetOpIntersectExcept(t *testing.T) {
	r, s := setopDemo()
	out, err := Run(NewTPSetOp(SetIntersect, NewScan(r), NewScan(s)), "i")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Tuples[0].T.Equal(interval.New(3, 6)) {
		t.Errorf("intersect wrong: %v", out)
	}
	out, err = Run(NewTPSetOp(SetExcept, NewScan(r), NewScan(s)), "e")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("except wrong: %v", out)
	}
}

func TestTPSetOpIncompatible(t *testing.T) {
	r, _ := setopDemo()
	two := tp.NewRelation("two", "A", "B")
	op := NewTPSetOp(SetUnion, NewScan(r), NewScan(two))
	if err := op.Open(); err == nil {
		t.Errorf("union-incompatible inputs must fail at Open")
	}
}

func TestTPSetOpOverDerivedChild(t *testing.T) {
	r, s := setopDemo()
	f := NewFilter(NewScan(r), func(tp.Tuple) bool { return true })
	out, err := Run(NewTPSetOp(SetUnion, f, NewScan(s)), "u")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("derived-child union wrong: %v", out)
	}
}

func TestLineageDistinct(t *testing.T) {
	b := paperB()
	d, err := NewLineageDistinct(NewScan(b), []int{1}, []string{"Loc"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(d, "d")
	if err != nil {
		t.Fatal(err)
	}
	// ZAK availability merges: elementary [4,5) [5,6) [6,8) plus SOR [1,4).
	if out.Len() != 4 {
		t.Fatalf("distinct rows = %d, want 4:\n%v", out.Len(), out)
	}
	if d.Child() == nil {
		t.Errorf("Child accessor wrong")
	}
	if len(d.Probs()) != 3 {
		t.Errorf("probs must flow through")
	}
}

func TestLineageDistinctValidation(t *testing.T) {
	b := paperB()
	if _, err := NewLineageDistinct(NewScan(b), []int{0, 1}, []string{"x"}); err == nil {
		t.Errorf("arity mismatch must error")
	}
	if _, err := NewLineageDistinct(NewScan(b), []int{9}, []string{"x"}); err == nil {
		t.Errorf("out-of-range column must error")
	}
}

func TestSetOpKindString(t *testing.T) {
	if SetUnion.String() != "union" || SetIntersect.String() != "intersect" ||
		SetExcept.String() != "except" {
		t.Errorf("kind names wrong")
	}
}
