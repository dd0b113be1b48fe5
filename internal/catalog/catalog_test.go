package catalog

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

func paperA() *tp.Relation {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	return a
}

func TestRegisterLookupDrop(t *testing.T) {
	c := New()
	if err := c.Register(paperA()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	rel, err := c.Lookup("a")
	if err != nil || rel.Len() != 2 {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Errorf("unknown relation must error")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Names = %v", got)
	}
	if !c.Drop("a") || c.Drop("a") {
		t.Errorf("Drop semantics wrong")
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	c := New()
	bad := tp.NewRelation("bad", "X")
	bad.Append(tp.Strings("k"), interval.New(0, 5), 0.5)
	bad.Append(tp.Strings("k"), interval.New(3, 9), 0.5)
	if err := c.Register(bad); err == nil {
		t.Errorf("overlapping same-fact relation must be rejected")
	}
	if err := c.Register(tp.NewRelation("", "X")); err == nil {
		t.Errorf("unnamed relation must be rejected")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	a := paperA()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, "a")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	assertCSVRoundTrip(t, got, a)
	if len(got.Probs) != 2 {
		t.Errorf("base events not registered on load")
	}

	// A FULL JOIN pads both sides with NULLs. They come back as NULL, not
	// as the text "-" that renders them: the IS NULL count is kept, and a
	// join on a padded column matches nothing (a text "-" would match
	// every other "-").
	pa, pb := paperRelations()
	f := core.Join(tp.OpFull, pa, pb, tp.Equi(1, 1))
	buf.Reset()
	if err := WriteCSV(&buf, f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	g, err := ReadCSV(&buf, "g")
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	assertCSVRoundTrip(t, g, f)
	nulls := func(rel *tp.Relation) (n int) {
		for _, tu := range rel.Tuples {
			if tu.Fact[0].IsNull() {
				n++
			}
		}
		return n
	}
	if nulls(f) != 3 || nulls(g) != nulls(f) {
		t.Errorf("Name IS NULL: %d rows after the round trip, %d before (want 3)", nulls(g), nulls(f))
	}
	if j := core.Join(tp.OpInner, g, g, tp.Equi(0, 0)); nulls(j) != 0 {
		t.Errorf("join on the padded Name column paired %d NULL-keyed rows:\n%v", nulls(j), j)
	}

	// The NULL marker itself cannot be written as text.
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings(`\N`), interval.New(0, 1), 0.5)
	if err := WriteCSV(&buf, r); err == nil || !strings.Contains(err.Error(), `\N`) {
		t.Errorf(`WriteCSV of the text \N: err = %v, want a refusal`, err)
	}
}

// assertCSVRoundTrip checks that got holds want's facts (NULLs included),
// intervals and probability bits, tuple by tuple.
func assertCSVRoundTrip(t *testing.T, got, want *tp.Relation) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("round trip shape %d×%d, want %d×%d", got.Len(), len(got.Attrs), want.Len(), len(want.Attrs))
	}
	for i, w := range want.Tuples {
		g := got.Tuples[i]
		if !g.Fact.Equal(w.Fact) || !g.T.Equal(w.T) || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, g, w)
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.csv")
	if err := SaveCSV(path, paperA()); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	got, err := LoadCSV(path, "a2")
	if err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if got.Name != "a2" || got.Len() != 2 {
		t.Errorf("loaded %s with %d tuples", got.Name, got.Len())
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv"), "x"); err == nil {
		t.Errorf("missing file must error")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                                 // no header
		"OnlyOne\n",                        // too few columns
		"K,Tstart,Tend,P\nx,a,5,0.5\n",     // bad start
		"K,Tstart,Tend,P\nx,1,b,0.5\n",     // bad end
		"K,Tstart,Tend,P\nx,5,5,0.5\n",     // empty interval
		"K,Tstart,Tend,P\nx,1,5,1.5\n",     // bad prob
		"K,Tstart,Tend,P\nx,1,5,NaN\n",     // NaN is no probability either
		"K,Tstart,Tend,P\nx,1,5,0.5,zzz\n", // wrong arity
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), "x"); err == nil {
			t.Errorf("ReadCSV(%q) must fail", src)
		}
	}
}

// FuzzReadCSV: any input either loads into a relation whose facts have
// the header's arity, whose intervals are non-empty and whose
// probabilities lie in [0, 1], or is an error. A loaded relation writes
// back out and reads in again with the same facts (NULLs included),
// intervals and probability bits.
func FuzzReadCSV(f *testing.F) {
	pa, pb := paperRelations()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, core.Join(tp.OpFull, pa, pb, tp.Equi(1, 1))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("Name,Loc,Tstart,Tend,P\n\"Smith, J.\nand co\",ZAK,1,5,0.25\n"))
	f.Add([]byte("Name,Loc,Tstart,Tend,P\n-,-,2,8,0.7\n\\N,ZAK,1,3,1\n"))
	// A CRLF inside a quoted field: the reader folds "\r\r\n" to it.
	f.Add([]byte("K,Tstart,Tend,P\n\"a\r\r\nb\",1,2,0.5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSV(bytes.NewReader(data), "f")
		if err != nil {
			return
		}
		for i, tu := range rel.Tuples {
			if len(tu.Fact) != len(rel.Attrs) || tu.T.Empty() || !tp.IsProb(tu.Prob) {
				t.Fatalf("accepted tuple %d of arity %d (schema %d), interval %v, probability %g",
					i, len(tu.Fact), len(rel.Attrs), tu.T, tu.Prob)
			}
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, rel); err != nil {
			t.Fatalf("loaded relation does not write: %v", err)
		}
		again, err := ReadCSV(&out, "f")
		if err != nil {
			t.Fatalf("written relation does not load: %v\n%s", err, out.Bytes())
		}
		assertCSVRoundTrip(t, again, rel)
	})
}
