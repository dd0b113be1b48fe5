package catalog

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

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
	if got.Len() != a.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), a.Len())
	}
	for i := range a.Tuples {
		if !got.Tuples[i].Fact.Equal(a.Tuples[i].Fact) ||
			!got.Tuples[i].T.Equal(a.Tuples[i].T) ||
			got.Tuples[i].Prob != a.Tuples[i].Prob {
			t.Errorf("tuple %d mismatch: %v vs %v", i, got.Tuples[i], a.Tuples[i])
		}
	}
	if len(got.Probs) != 2 {
		t.Errorf("base events not registered on load")
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
