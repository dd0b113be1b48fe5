package catalog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/tp"
)

func paperRelations() (*tp.Relation, *tp.Relation) {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	return a, b
}

func assertRelationsEqual(t *testing.T, got, want *tp.Relation) {
	t.Helper()
	if got.Name != want.Name || len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("header mismatch: %s%v vs %s%v", got.Name, got.Attrs, want.Name, want.Attrs)
	}
	for i, a := range want.Attrs {
		if got.Attrs[i] != a {
			t.Fatalf("attr %d: %q vs %q", i, got.Attrs[i], a)
		}
	}
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("probs size %d vs %d", len(got.Probs), len(want.Probs))
	}
	for v, p := range want.Probs {
		if got.Probs[v] != p {
			t.Fatalf("prob of %v: %g vs %g", v, got.Probs[v], p)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("tuple count %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if !g.Fact.Equal(w.Fact) || !g.T.Equal(w.T) || g.Prob != w.Prob {
			t.Fatalf("tuple %d differs: %v vs %v", i, g, w)
		}
		if !g.Lineage.Equal(w.Lineage) {
			t.Fatalf("tuple %d lineage: %v vs %v", i, g.Lineage, w.Lineage)
		}
	}
}

func TestBinaryRoundTripBase(t *testing.T) {
	a, _ := paperRelations()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertRelationsEqual(t, got, a)
}

func TestBinaryRoundTripDerived(t *testing.T) {
	// The whole point of the binary format: a join result with composite
	// lineages and NULLs survives the round trip. CSV cannot do this.
	a, b := paperRelations()
	q := core.LeftOuterJoin(a, b, tp.Equi(1, 1))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, q); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertRelationsEqual(t, got, q)
	// The reloaded relation is fully functional: joins again correctly.
	q2 := core.AntiJoin(got, b, tp.Equi(1, 1))
	pm, err := tp.Expand(q2)
	if err != nil {
		t.Fatalf("reloaded relation not joinable: %v", err)
	}
	ref := tp.RefJoin(tp.OpAnti, q, b, tp.Equi(1, 1))
	if err := pm.EqualProb(ref, 1e-9); err != nil {
		t.Fatalf("reloaded relation joins differently: %v", err)
	}
}

func TestBinaryRoundTripTypedValues(t *testing.T) {
	r := &tp.Relation{Name: "typed", Attrs: []string{"A", "B", "C", "D"}}
	r.Probs = map[lineage.Var]float64{{Rel: "e", ID: 1}: 0.5}
	r.AppendDerived(
		tp.Fact{tp.Int(-42), tp.Float(2.75), tp.String_("héllo"), tp.Null()},
		lineage.NewVar("e", 1), interval.New(-5, 5), 0.5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, r); err != nil {
		t.Fatalf("%v", err)
	}
	got, err := ReadBinary(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("%v", err)
	}
	assertRelationsEqual(t, got, r)
	if got.Tuples[0].Fact[0].AsInt() != -42 || got.Tuples[0].Fact[1].AsFloat() != 2.75 {
		t.Errorf("typed values corrupted: %v", got.Tuples[0].Fact)
	}
	if !got.Tuples[0].Fact[3].IsNull() {
		t.Errorf("NULL lost")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	a, b := paperRelations()
	q := core.FullOuterJoin(a, b, tp.Equi(1, 1))
	path := filepath.Join(t.TempDir(), "q.tpr")
	if err := SaveBinary(path, q); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatalf("LoadBinary: %v", err)
	}
	assertRelationsEqual(t, got, q)
}

func TestBinaryRejectsCorruption(t *testing.T) {
	a, _ := paperRelations()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadBinary(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Errorf("bad magic must fail")
	}
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadBinary(bufio.NewReader(bytes.NewReader(data[:cut]))); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
}

func TestBinaryFuzzRandomLineages(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		e := randLineage(rng, 4)
		var buf bytes.Buffer
		enc := lineage.NewEncoder(&buf)
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec := lineage.NewDecoder(&buf)
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Equal(e) {
			t.Fatalf("trial %d: round trip changed expression: %v vs %v", trial, got, e)
		}
	}
}

func TestEncoderSharedDictionary(t *testing.T) {
	// Encoding many expressions over the same relation names must not
	// repeat the names.
	var buf bytes.Buffer
	enc := lineage.NewEncoder(&buf)
	for i := 1; i <= 100; i++ {
		if err := enc.Encode(lineage.NewVar("relation_with_long_name", i)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() > 100*8+64 {
		t.Errorf("dictionary not shared: %d bytes for 100 vars", buf.Len())
	}
	dec := lineage.NewDecoder(&buf)
	for i := 1; i <= 100; i++ {
		e, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if e.Variable().ID != i || e.Variable().Rel != "relation_with_long_name" {
			t.Fatalf("decode %d wrong: %v", i, e)
		}
	}
}

func TestWriteBinaryRejectsNilLineage(t *testing.T) {
	r := &tp.Relation{Name: "r", Attrs: []string{"K"}}
	r.AppendDerived(tp.Strings("x"), nil, interval.New(0, 1), 0)
	var buf bytes.Buffer
	err := WriteBinary(&buf, r)
	if err == nil || !strings.Contains(err.Error(), "nil lineage") {
		t.Errorf("nil lineage must be rejected, got %v", err)
	}
}

func randLineage(rng *rand.Rand, depth int) *lineage.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		rel := []string{"a", "b", "rel-x"}[rng.Intn(3)]
		return lineage.NewVar(rel, rng.Intn(50))
	}
	switch rng.Intn(4) {
	case 0:
		return lineage.Not(randLineage(rng, depth-1))
	case 1:
		return lineage.And(randLineage(rng, depth-1), randLineage(rng, depth-1))
	case 2:
		return lineage.Or(randLineage(rng, depth-1), randLineage(rng, depth-1), randLineage(rng, depth-1))
	default:
		return lineage.AndNot(randLineage(rng, depth-1), randLineage(rng, depth-1))
	}
}

// craftedHeaders are .tpr inputs whose counts promise far more data than
// the input holds. A decoder that presizes from such a count dies with a
// fatal out-of-memory error no recover can catch.
func craftedHeaders() map[string][]byte {
	uv := binary.AppendUvarint
	magic := []byte(binaryMagic)
	// One tuple of a zero-attribute relation, up to its lineage frame.
	tuple := uv(uv(uv(uv(append([]byte(nil), magic...), 0), 0), 0), 1) // name, attrs, probs, 1 tuple
	tuple = binary.AppendVarint(binary.AppendVarint(tuple, 0), 1)      // [0,1)
	tuple = append(tuple, make([]byte, 8)...)                          // probability bits
	return map[string][]byte{
		"huge attr count":            uv(uv(append([]byte(nil), magic...), 0), 1<<33),
		"huge prob count":            uv(uv(uv(append([]byte(nil), magic...), 0), 0), 1<<62),
		"huge tuple count":           uv(uv(uv(uv(append([]byte(nil), magic...), 0), 0), 0), 1<<62),
		"huge string length":         uv(append([]byte(nil), magic...), 1<<62),
		"truncated string":           uv(append([]byte(nil), magic...), 1<<20),
		"huge lineage payload size":  uv(append([]byte(nil), tuple...), 1<<40),
		"huge lineage payload > int": uv(append([]byte(nil), tuple...), 1<<63+5),
	}
}

// TestReadBinaryRejectsCraftedCounts: every crafted header is an error,
// not an allocation the input cannot back.
func TestReadBinaryRejectsCraftedCounts(t *testing.T) {
	for name, data := range craftedHeaders() {
		if _, err := ReadBinary(bufio.NewReader(bytes.NewReader(data))); err == nil {
			t.Errorf("%s: ReadBinary accepted %d crafted bytes", name, len(data))
		}
	}
}

// badProbFrames are well-formed .tpr frames of a one-tuple relation with
// NaN, −0.1 or 1.5 as the tuple's probability or as its base event's.
// Loaded, such a row prints p = NaN and fails the server's JSON encoder.
func badProbFrames(tb testing.TB) map[string][]byte {
	out := make(map[string][]byte)
	for _, p := range []float64{math.NaN(), -0.1, 1.5} {
		for _, onTuple := range []bool{false, true} {
			ev, tupleP := lineage.Var{Rel: "r", ID: 1}, 0.5
			r := &tp.Relation{Name: "r", Attrs: []string{"K"}, Probs: map[lineage.Var]float64{ev: 0.5}}
			name := fmt.Sprintf("base event p=%g", p)
			if onTuple {
				tupleP, name = p, fmt.Sprintf("tuple p=%g", p)
			} else {
				r.Probs[ev] = p
			}
			r.AppendDerived(tp.Strings("x"), lineage.VarExpr(ev), interval.New(0, 1), tupleP)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, r); err != nil {
				tb.Fatal(err)
			}
			out[name] = buf.Bytes()
		}
	}
	return out
}

// TestReadBinaryRejectsBadProbabilities: a probability outside [0, 1],
// NaN included, is a decode error wherever the frame carries it.
func TestReadBinaryRejectsBadProbabilities(t *testing.T) {
	for name, data := range badProbFrames(t) {
		_, err := ReadBinary(bufio.NewReader(bytes.NewReader(data)))
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("%s: ReadBinary err = %v, want a probability range error", name, err)
		}
	}
}

// FuzzReadBinary: any input either decodes into a relation whose
// probabilities all lie in [0, 1] and that re-encodes and decodes again,
// or is an error — never a panic or an allocation the input cannot back.
func FuzzReadBinary(f *testing.F) {
	a, b := paperRelations()
	for _, rel := range []*tp.Relation{a, core.LeftOuterJoin(a, b, tp.Equi(1, 1))} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, rel); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, data := range craftedHeaders() {
		f.Add(data)
	}
	for _, data := range badProbFrames(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadBinary(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		for v, p := range rel.Probs {
			if !tp.IsProb(p) {
				t.Fatalf("accepted base event %v with probability %g", v, p)
			}
		}
		for i, tu := range rel.Tuples {
			if !tp.IsProb(tu.Prob) {
				t.Fatalf("accepted tuple %d with probability %g", i, tu.Prob)
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, rel); err != nil {
			t.Fatalf("decoded relation does not re-encode: %v", err)
		}
		again, err := ReadBinary(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded relation does not decode: %v", err)
		}
		if again.Len() != rel.Len() || len(again.Attrs) != len(rel.Attrs) {
			t.Fatalf("round trip changed shape: %d×%d vs %d×%d",
				again.Len(), len(again.Attrs), rel.Len(), len(rel.Attrs))
		}
	})
}
