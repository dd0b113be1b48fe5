package tp

import (
	"testing"
	"testing/quick"
)

// TestValueKinds: a value is text or NULL, and the empty string is text.
func TestValueKinds(t *testing.T) {
	if !Null().IsNull() || !(Value{}).IsNull() {
		t.Errorf("Null and the zero Value must be NULL")
	}
	if String_("x").IsNull() || String_("x").AsString() != "x" {
		t.Errorf("String misbehaves")
	}
	if String_("").IsNull() || String_("").Equal(Null()) {
		t.Errorf(`"" must be text, distinct from NULL`)
	}
}

func TestValueAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("AsString on NULL: expected panic")
		}
	}()
	Null().AsString()
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Null(), Null(), true},
		{Null(), String_(""), false},
		{Null(), String_("-"), false},
		{String_(""), String_(""), true},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{String_("2"), String_("2.0"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{Null(), String_(""), String_("10"), String_("5"), String_("a"), String_("b"), String_("é")}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	if Null().String() != "-" {
		t.Errorf("NULL must render as '-' per Fig. 1b, got %q", Null().String())
	}
	if String_("ZAK").String() != "ZAK" || String_("").String() != "" {
		t.Errorf("rendering wrong")
	}
}

func TestFactKeyInjective(t *testing.T) {
	cases := [][2]Fact{
		{Strings("ab", "c"), Strings("a", "bc")},
		{Strings("a"), Fact{Null()}},
		{Strings(""), Fact{Null()}},
		{Strings("-"), Fact{Null()}},
		{Fact{String_("1"), Null()}, Strings("1")},
		{Strings("N;"), Fact{Null(), Null()}},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("Key collision between %v and %v", c[0], c[1])
		}
	}
	if Strings("a", "b").Key() != Strings("a", "b").Key() {
		t.Errorf("Key must be deterministic")
	}
}

// TestKeyHashGolden pins KeyHash to the values of the four-kind value
// model it replaced: text folds tag 3, the length and the bytes, NULL
// folds tag 0. Hash partitioning (par.PartitionByKey) and with it the
// partition-major output order of PNJ and PTA depend on these values.
func TestKeyHashGolden(t *testing.T) {
	cases := []struct {
		f    Fact
		want uint64
	}{
		{Fact{}, 0xcbf29ce484222325},
		{Strings(""), 0x796ed797b92b1fd2},
		{Fact{Null()}, 0xaf63bd4c8601b7df},
		{Strings("ZAK"), 0x0e7b15837288e001},
		{Strings("Ann", "ZAK"), 0x7ec9005e41c626a4},
		{Strings("ab", "c"), 0x79f777f934a6edb6},
		{Strings("a", "bc"), 0xb35ce8ac7cb593da},
		{Fact{String_("Ann"), Null(), String_("")}, 0xfb4ade819e31cdf5},
		{Strings("héllo", "日本語"), 0xe2f1f72db67a2f31},
		{Fact{Null(), Null()}, 0x08328807b4eb6fed},
	}
	for _, c := range cases {
		if got := c.f.KeyHash(); got != c.want {
			t.Errorf("KeyHash(%q) = %#x, want %#x", c.f, got, c.want)
		}
	}
	if h, ok := Equi(0, 0).RKeyHash(Strings("ZAK")); !ok || h != 0x0e7b15837288e001 {
		t.Errorf("RKeyHash(ZAK) = %#x, %v; want the fact's KeyHash", h, ok)
	}
}

func TestFactOps(t *testing.T) {
	f := Strings("Ann", "ZAK")
	g := f.Concat(Nulls(1))
	if g.String() != "Ann, ZAK, -" {
		t.Errorf("Concat/String = %q", g)
	}
	if !f.Equal(Strings("Ann", "ZAK")) {
		t.Errorf("Equal failed")
	}
	if f.Equal(Strings("Ann")) {
		t.Errorf("arity mismatch must not be Equal")
	}
	if f.Compare(Strings("Ann", "ZAK")) != 0 {
		t.Errorf("Compare equal failed")
	}
	if f.Compare(Strings("Ann", "ZAL")) >= 0 {
		t.Errorf("Compare order failed")
	}
	if f.Compare(Strings("Ann")) <= 0 {
		t.Errorf("longer fact must compare greater on prefix tie")
	}
	cl := f.Clone()
	cl[0] = String_("Bob")
	if f[0].AsString() != "Ann" {
		t.Errorf("Clone must not alias")
	}
}

func TestNullsFact(t *testing.T) {
	n := Nulls(3)
	if len(n) != 3 {
		t.Fatalf("Nulls arity")
	}
	for _, v := range n {
		if !v.IsNull() {
			t.Errorf("Nulls must be NULL")
		}
	}
}

// Property tests on the core value/fact data structures (testing/quick).

func TestValueCompareTotalOrderQuick(t *testing.T) {
	// One in three values is NULL; short strings make ties likely.
	gen := func(sel int, s string) Value {
		if sel%3 == 0 {
			return Null()
		}
		if len(s) > 2 {
			s = s[:2]
		}
		return String_(s)
	}
	antisym := func(s1 int, st1 string, s2 int, st2 string) bool {
		a, b := gen(s1, st1), gen(s2, st2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(s1 int, st1 string, s2 int, st2 string, s3 int, st3 string) bool {
		a, b, c := gen(s1, st1), gen(s2, st2), gen(s3, st3)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	// Compare is 0 exactly when Equal holds, and equal values hash equal.
	consistent := func(s1 int, st1 string, s2 int, st2 string) bool {
		a, b := gen(s1, st1), gen(s2, st2)
		if a.Equal(b) != (a.Compare(b) == 0) {
			return false
		}
		return !a.Equal(b) || (Fact{a}).KeyHash() == (Fact{b}).KeyHash()
	}
	if err := quick.Check(consistent, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("Equal/Compare consistency: %v", err)
	}
}

func TestFactKeyEqualConsistencyQuick(t *testing.T) {
	// Facts over string values: Key equality must coincide with Equal.
	f := func(a1, a2, b1, b2 string) bool {
		fa := Strings(a1, a2)
		fb := Strings(b1, b2)
		return (fa.Key() == fb.Key()) == fa.Equal(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFactCompareMatchesKeyOrderQuick(t *testing.T) {
	// Compare must be a total order agreeing with Equal.
	f := func(a1, b1 string, x, y int8) bool {
		fa := Fact{String_(a1), Null()}
		fb := Fact{String_(b1), Null()}
		if x%2 == 0 {
			fa[1] = String_(string(rune('a' + x%4)))
		}
		if y%2 == 0 {
			fb[1] = String_(string(rune('a' + y%4)))
		}
		c := fa.Compare(fb)
		if fa.Equal(fb) {
			return c == 0
		}
		return c != 0 && c == -fb.Compare(fa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
