package sql

import "testing"

// FuzzParse asserts the lexer/parser never panic on arbitrary input —
// with tpserverd the dialect is exposed to untrusted network clients, so
// any input must either parse or return an error, never crash — and that
// an accepted statement's canonical text round-trips. Run with
//
//	go test -fuzz=FuzzParse ./internal/sql
//
// Under plain `go test` the seed corpus alone is exercised.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		";",
		"SELECT * FROM a",
		"SELECT DISTINCT Name, b.Hotel FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE P >= 0.5 ORDER BY Tstart DESC LIMIT 3;",
		"SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc",
		"SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key",
		"SELECT * FROM r TP UNION s",
		"SELECT * FROM r TP INTERSECT s",
		"SELECT * FROM r TP EXCEPT s",
		"CREATE TABLE q AS SELECT * FROM a TP INNER JOIN b ON a.Loc = b.Loc",
		"EXPLAIN ANALYZE SELECT * FROM a",
		"SET strategy = nj",
		"SET ta_nested_loop = off",
		"WHERE WHERE WHERE",
		"SELECT * FROM a WHERE x = 'unterminated",
		"SELECT * FROM a WHERE x = 1e309",
		"SELECT * FROM a ORDER BY",
		"SELECT * FROM \x00\xff",
		"select*from a tp left join b on a.x=b.y where z is not null",
		"-- comment only",
		"'''",
		`"Name" FROM`,
		"SELECT (((",
		"PREPARE q AS SELECT * FROM a WHERE P >= 0.00001",
		"SELECT * FROM a WHERE x = 123456789012345678901234567890",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			if st != nil {
				t.Errorf("Parse(%q) returned both a statement and an error", src)
			}
			return
		}
		if st == nil {
			t.Errorf("Parse(%q) returned nil statement without error", src)
			return
		}
		// The canonical text is what EXPLAIN and \prepared print and what
		// keys the plan cache: it must parse again, to the same text.
		text := st.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Errorf("String() is not a fixpoint: %q → %q", text, got)
		}
	})
}
