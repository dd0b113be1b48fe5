package lineage

import "testing"

func TestLiterals(t *testing.T) {
	x, y := v("a", 1), v("b", 2)
	if Literals(AndNot(x, Or(y, x))) != 3 {
		t.Errorf("Literals = %d, want 3", Literals(AndNot(x, Or(y, x))))
	}
	if Literals(True()) != 0 {
		t.Errorf("constants have no literals")
	}
	if Literals(Not(x)) != 1 {
		t.Errorf("negated literal counts once")
	}
}
