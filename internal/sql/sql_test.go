package sql

import (
	"strings"
	"testing"

	"tpjoin/internal/tp"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a.x, b_1 FROM t WHERE p >= 0.5 AND q = 'it''s'")
	if err != nil {
		t.Fatalf("%v", err)
	}
	kinds := []TokenKind{
		TokKeyword, TokIdent, TokSymbol, TokIdent, TokSymbol, TokIdent,
		TokKeyword, TokIdent, TokKeyword, TokIdent, TokSymbol, TokNumber,
		TokKeyword, TokIdent, TokSymbol, TokString, TokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v (%q)", i, toks[i].Kind, k, toks[i].Text)
		}
	}
	if toks[15].Text != "it's" {
		t.Errorf("escaped string = %q", toks[15].Text)
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := Tokenize("SELECT 'unterminated"); err == nil {
		t.Errorf("unterminated string must fail")
	}
	if _, err := Tokenize("SELECT @"); err == nil {
		t.Errorf("bad character must fail")
	}
}

func TestTokenizeTwoCharSymbols(t *testing.T) {
	toks, err := Tokenize("a <> b <= c >= d != e")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "<>", "b", "<=", "c", ">=", "d", "!=", "e"}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	st, err := Parse("SELECT * FROM a")
	if err != nil {
		t.Fatalf("%v", err)
	}
	sel, ok := st.(*Select)
	if !ok || !sel.Star || sel.From.Name != "a" || sel.Join != nil || sel.Limit != -1 {
		t.Fatalf("unexpected parse: %#v", st)
	}
}

func TestParseProjection(t *testing.T) {
	st, err := Parse("SELECT Name, a.Loc FROM a")
	if err != nil {
		t.Fatalf("%v", err)
	}
	sel := st.(*Select)
	if len(sel.Projs) != 2 || sel.Projs[0].Column != "Name" ||
		sel.Projs[1].Table != "a" || sel.Projs[1].Column != "Loc" {
		t.Fatalf("projections wrong: %#v", sel.Projs)
	}
}

func TestParseTPJoins(t *testing.T) {
	cases := map[string]tp.Op{
		"SELECT * FROM a TP JOIN b ON a.Loc = b.Loc":            tp.OpInner,
		"SELECT * FROM a TP INNER JOIN b ON a.Loc = b.Loc":      tp.OpInner,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc":       tp.OpLeft,
		"SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc": tp.OpLeft,
		"SELECT * FROM a TP RIGHT JOIN b ON a.Loc = b.Loc":      tp.OpRight,
		"SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc": tp.OpFull,
		"SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc":       tp.OpAnti,
	}
	for src, op := range cases {
		st, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		sel := st.(*Select)
		if sel.Join == nil || sel.Join.Op != op {
			t.Errorf("%s: op = %v, want %v", src, sel.Join.Op, op)
		}
		if len(sel.Join.On) != 1 || sel.Join.On[0].L.Table != "a" || sel.Join.On[0].R.Column != "Loc" {
			t.Errorf("%s: on = %#v", src, sel.Join.On)
		}
	}
}

func TestParseMultiColumnOn(t *testing.T) {
	st, err := Parse("SELECT * FROM r TP JOIN s ON r.K = s.K AND r.G = s.G")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if len(sel.Join.On) != 2 {
		t.Fatalf("on conjuncts = %d", len(sel.Join.On))
	}
}

func TestParseWhere(t *testing.T) {
	st, err := Parse("SELECT * FROM a WHERE Name = 'Ann' AND a.Loc <> 'WEN' AND Hotel IS NULL AND x IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if len(sel.Where) != 4 {
		t.Fatalf("where conjuncts = %d", len(sel.Where))
	}
	if sel.Where[0].Op != "=" || !sel.Where[0].Lit.IsString || sel.Where[0].Lit.Str != "Ann" {
		t.Errorf("cond 0 wrong: %+v", sel.Where[0])
	}
	if !sel.Where[2].IsNull || sel.Where[2].Negate {
		t.Errorf("cond 2 wrong: %+v", sel.Where[2])
	}
	if !sel.Where[3].IsNull || !sel.Where[3].Negate {
		t.Errorf("cond 3 wrong: %+v", sel.Where[3])
	}
}

func TestParseLimitAndAlias(t *testing.T) {
	st, err := Parse("SELECT * FROM verylongname AS v TP LEFT JOIN other o ON v.K = o.K LIMIT 10;")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if sel.From.Alias != "v" || sel.Join.Right.Alias != "o" || sel.Limit != 10 {
		t.Errorf("alias/limit wrong: %+v", sel)
	}
	if sel.From.Binding() != "v" {
		t.Errorf("binding should prefer alias")
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse("EXPLAIN SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*Explain)
	if !ok || ex.Analyze || ex.Query.Join.Op != tp.OpAnti {
		t.Fatalf("explain parse wrong: %#v", st)
	}
	st, err = Parse("EXPLAIN ANALYZE SELECT * FROM a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*Explain).Analyze {
		t.Errorf("ANALYZE flag lost")
	}
}

func TestParseSet(t *testing.T) {
	st, err := Parse("SET strategy = ta")
	if err != nil {
		t.Fatal(err)
	}
	set := st.(*Set)
	if set.Name != "strategy" || set.Value != "ta" {
		t.Errorf("set wrong: %+v", set)
	}
	st, err = Parse("SET strategy = 'nj'")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Set).Value != "nj" {
		t.Errorf("quoted set value wrong")
	}
	// Keyword values and keyword-colliding names must parse (the planner
	// owns validation and reports unknown names/values with the accepted
	// alternatives); the lexer upper-cases keywords.
	st, err = Parse("SET strategy = select")
	if err != nil {
		t.Fatalf("keyword value must parse: %v", err)
	}
	if st.(*Set).Value != "SELECT" {
		t.Errorf("keyword value wrong: %+v", st)
	}
	st, err = Parse("SET analyze = on")
	if err != nil {
		t.Fatalf("keyword-colliding setting name must parse: %v", err)
	}
	// ON is a keyword too, so both sides surface upper-cased; ApplySet
	// normalizes case.
	if st.(*Set).Name != "ANALYZE" || st.(*Set).Value != "ON" {
		t.Errorf("keyword name wrong: %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB x",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x", // missing TP
		"SELECT * FROM a TP LEFT JOIN b",           // missing ON
		"SELECT * FROM a TP LEFT JOIN b ON a.x < b.x",
		"SELECT * FROM a WHERE",
		"SELECT * FROM a WHERE x LIKE 'y'",
		"SELECT * FROM a LIMIT x",
		"SELECT * FROM a extra garbage",
		"SET strategy",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
	// The plain-join error must carry the TP hint.
	_, err := Parse("SELECT * FROM a LEFT JOIN b ON a.x = b.x")
	if err == nil || !strings.Contains(err.Error(), "TP") {
		t.Errorf("plain join error should hint at TP: %v", err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann' LIMIT 5",
		"SELECT Name, Loc FROM a",
		"EXPLAIN SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc",
		"SET strategy = 'ta'",
	}
	for _, src := range srcs {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", st.String(), src, err)
		}
		if st.String() != st2.String() {
			t.Errorf("round trip unstable: %q vs %q", st.String(), st2.String())
		}
	}
}

func TestParseSetOps(t *testing.T) {
	cases := map[string]SetOpKind{
		"SELECT * FROM r TP UNION s":     SetUnion,
		"SELECT * FROM r TP INTERSECT s": SetIntersect,
		"SELECT * FROM r TP EXCEPT s":    SetExcept,
	}
	for src, kind := range cases {
		st, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		sel := st.(*Select)
		if sel.SetOp == nil || sel.SetOp.Kind != kind || sel.SetOp.Right.Name != "s" {
			t.Errorf("%s: setop = %+v", src, sel.SetOp)
		}
		if sel.Join != nil {
			t.Errorf("%s: join must be nil", src)
		}
	}
	// Plain UNION without TP is rejected with a hint.
	_, err := Parse("SELECT * FROM r UNION s")
	if err == nil || !strings.Contains(err.Error(), "TP") {
		t.Errorf("plain UNION should hint at TP: %v", err)
	}
}

func TestParseDistinct(t *testing.T) {
	st, err := Parse("SELECT DISTINCT Loc FROM b")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if !sel.Distinct || len(sel.Projs) != 1 {
		t.Errorf("distinct parse wrong: %+v", sel)
	}
	st, err = Parse("SELECT DISTINCT * FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*Select).Distinct || !st.(*Select).Star {
		t.Errorf("distinct star wrong")
	}
	// Round trip.
	st2, err := Parse(st.String())
	if err != nil || !st2.(*Select).Distinct {
		t.Errorf("distinct round trip failed: %v", err)
	}
}

func TestParseSetOpRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM r TP UNION s",
		"SELECT DISTINCT Loc FROM r TP EXCEPT s WHERE P >= 0.5",
	} {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := Parse(st.String()); err != nil {
			t.Errorf("re-parse of %q failed: %v", st.String(), err)
		}
	}
}

func TestParseOrderBy(t *testing.T) {
	st, err := Parse("SELECT * FROM b ORDER BY Hotel DESC, Tstart ASC, P LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	if len(sel.OrderBy) != 3 {
		t.Fatalf("order keys = %d", len(sel.OrderBy))
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc || sel.OrderBy[2].Desc {
		t.Errorf("DESC flags wrong: %+v", sel.OrderBy)
	}
	if sel.Limit != 2 {
		t.Errorf("LIMIT after ORDER BY lost")
	}
	// Round trip.
	st2, err := Parse(st.String())
	if err != nil || len(st2.(*Select).OrderBy) != 3 {
		t.Errorf("order-by round trip failed: %v", err)
	}
	// Errors.
	if _, err := Parse("SELECT * FROM b ORDER Hotel"); err == nil {
		t.Errorf("ORDER without BY must fail")
	}
}

func TestParseCreateTableAs(t *testing.T) {
	st, err := Parse("CREATE TABLE q AS SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := st.(*CreateTableAs)
	if !ok || ct.Name != "q" || ct.Query.Join == nil {
		t.Fatalf("create parse wrong: %#v", st)
	}
	// Round trip.
	st2, err := Parse(ct.String())
	if err != nil || st2.(*CreateTableAs).Name != "q" {
		t.Errorf("create round trip failed: %v", err)
	}
	// Errors.
	for _, bad := range []string{
		"CREATE q AS SELECT * FROM a",
		"CREATE TABLE AS SELECT * FROM a",
		"CREATE TABLE q SELECT * FROM a",
		"CREATE TABLE q AS",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) must fail", bad)
		}
	}
}
