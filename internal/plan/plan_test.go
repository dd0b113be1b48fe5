package plan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tpjoin/internal/catalog"
	"tpjoin/internal/dataset"
	"tpjoin/internal/engine"
	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

func demoCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	c := catalog.New()
	if err := c.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustRun(t *testing.T, src string, sess *Session, cat *catalog.Catalog) *tp.Relation {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	op, err := Build(st.(*sql.Select), cat, sess)
	if err != nil {
		t.Fatalf("build %q: %v", src, err)
	}
	out, err := engine.Run(op, "q")
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return out
}

func TestPaperQueryViaSQL(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	out := mustRun(t, "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc", sess, cat)
	if out.Len() != 7 {
		t.Fatalf("Fig. 1b query returned %d tuples, want 7:\n%v", out.Len(), out)
	}
	// The TA strategy must agree.
	sess.Strategy = StrategyTA
	outTA := mustRun(t, "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc", sess, cat)
	if err := oracle.Cross(out, outTA); err != nil {
		t.Errorf("NJ and TA via SQL disagree: %v", err)
	}
}

func TestPNJViaSQL(t *testing.T) {
	cat := demoCatalog(t)
	nj := mustRun(t, "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc", &Session{}, cat)
	sess := &Session{Strategy: StrategyPNJ, Workers: 2}
	pnj := mustRun(t, "SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc", sess, cat)
	if err := oracle.Bag(nj, pnj); err != nil {
		t.Errorf("NJ and PNJ via SQL disagree: %v", err)
	}
}

func TestExplainPNJShowsWorkers(t *testing.T) {
	cat := demoCatalog(t)
	st, err := sql.Parse("EXPLAIN SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	ex := st.(*sql.Explain)
	out, err := Explain(ex.Query, cat, &Session{Strategy: StrategyPNJ, Workers: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy=PNJ workers=3") {
		t.Errorf("EXPLAIN missing PNJ worker annotation:\n%s", out)
	}
	out, err = Explain(ex.Query, cat, &Session{Strategy: StrategyPNJ}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy=PNJ workers=auto") {
		t.Errorf("EXPLAIN missing auto worker annotation:\n%s", out)
	}
}

func TestSwappedOnOrientation(t *testing.T) {
	cat := demoCatalog(t)
	out := mustRun(t, "SELECT * FROM a TP LEFT JOIN b ON b.Loc = a.Loc", &Session{}, cat)
	if out.Len() != 7 {
		t.Errorf("swapped ON orientation must work, got %d tuples", out.Len())
	}
}

func TestWhereAndProjection(t *testing.T) {
	cat := demoCatalog(t)
	out := mustRun(t, "SELECT Name FROM a WHERE Loc = 'ZAK'", &Session{}, cat)
	if out.Len() != 1 || out.Tuples[0].Fact.String() != "Ann" {
		t.Errorf("filtered projection wrong: %v", out)
	}
	out = mustRun(t,
		"SELECT Name, Hotel FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Hotel IS NULL", &Session{}, cat)
	for _, tu := range out.Tuples {
		if !tu.Fact[1].IsNull() {
			t.Errorf("IS NULL filter leaked %v", tu.Fact)
		}
	}
	if out.Len() != 5 {
		t.Errorf("IS NULL rows = %d, want 5", out.Len())
	}
	out = mustRun(t,
		"SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc LIMIT 2", &Session{}, cat)
	if out.Len() != 2 || len(out.Attrs) != 2 {
		t.Errorf("anti join via SQL wrong: %v", out)
	}
}

func TestNumericComparisons(t *testing.T) {
	cat := catalog.New()
	r := tp.NewRelation("nums", "V")
	r.Append(tp.Fact{tp.String_("5")}, interval.New(0, 1), 0.5)
	if err := cat.Register(r); err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "SELECT * FROM nums WHERE V >= '3'", &Session{}, cat)
	if out.Len() != 1 {
		t.Errorf("string comparison wrong")
	}
	out = mustRun(t, "SELECT * FROM nums WHERE V <> '5'", &Session{}, cat)
	if out.Len() != 0 {
		t.Errorf("<> wrong")
	}
}

// TestFactColumnsCompareToText: a fact attribute holds text, so comparing
// it to a number is a planning error — inline or as a bound parameter —
// not a comparison that orders every string after every number.
func TestFactColumnsCompareToText(t *testing.T) {
	cat := demoCatalog(t)
	const want = "plan: Loc holds text; compare it to a quoted string, got 5"
	for _, src := range []string{"SELECT * FROM a WHERE Loc > 5", "SELECT * FROM a WHERE Loc = 5"} {
		st, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(st.(*sql.Select), cat, &Session{}); err == nil || err.Error() != want {
			t.Errorf("Build(%q) err = %v, want %q", src, err, want)
		}
	}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc WHERE a.Loc = ?")
	_, _, err := PlanPrepared(NewCache(0), cat, &Session{}, p, []sql.Literal{{Num: 5}})
	if want := strings.Replace(want, "Loc", "a.Loc", 1); err == nil || err.Error() != want {
		t.Errorf("EXECUTE q (5) err = %v, want %q", err, want)
	}
	// A quoted string still compares, and the prepared plan still runs.
	if out, _ := runPrepared(t, NewCache(0), cat, &Session{}, p, sql.Literal{IsString: true, Str: "ZAK"}); out.Len() != 2 {
		t.Errorf("EXECUTE q ('ZAK') returned %d rows, want 2", out.Len())
	}
}

func TestBuildErrors(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	bad := []string{
		"SELECT * FROM nope",
		"SELECT * FROM a TP JOIN nope ON a.Loc = nope.Loc",
		"SELECT Missing FROM a",
		"SELECT * FROM a WHERE Missing = 1",
		"SELECT * FROM a TP JOIN b ON a.Name = a.Loc",  // both sides left
		"SELECT Loc FROM a TP JOIN b ON a.Loc = b.Loc", // ambiguous Loc
	}
	for _, src := range bad {
		st, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(st.(*sql.Select), cat, sess); err == nil {
			t.Errorf("Build(%q) must fail", src)
		}
	}
}

func TestAliasResolution(t *testing.T) {
	cat := demoCatalog(t)
	out := mustRun(t,
		"SELECT x.Name FROM a AS x TP LEFT JOIN b AS y ON x.Loc = y.Loc WHERE y.Hotel IS NOT NULL",
		&Session{}, cat)
	if out.Len() != 2 {
		t.Errorf("alias query rows = %d, want 2 (the two pairings)", out.Len())
	}
}

// TestStrategySetRoundTrip: every session strategy, auto through PTA,
// is reachable by SET in any case, maps to the engine strategy it names,
// and keeps its String spelling.
func TestStrategySetRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		set, key string
		want     Strategy
		phys     engine.Strategy
	}{
		{"aUtO", "auto", StrategyAuto, engine.StrategyNJ},
		{"Nj", "NJ", StrategyNJ, engine.StrategyNJ},
		{"tA", "TA", StrategyTA, engine.StrategyTA},
		{"pNj", "PNJ", StrategyPNJ, engine.StrategyPNJ},
		{"PtA", "PTA", StrategyPTA, engine.StrategyPTA},
	} {
		var s Session
		if err := s.ApplySet(&sql.Set{Name: "strategy", Value: tc.set}); err != nil || s.Strategy != tc.want {
			t.Errorf("SET strategy = %s: got %v, %v; want %v", tc.set, s.Strategy, err, tc.want)
		}
		if phys, forced := s.Strategy.Physical(); phys != tc.phys || forced != (tc.want != StrategyAuto) {
			t.Errorf("%v.Physical() = %v, %t", s.Strategy, phys, forced)
		}
		if got := s.Strategy.String(); got != tc.key {
			t.Errorf("%v.String() = %q, want %q", s.Strategy, got, tc.key)
		}
	}
}

func TestApplySet(t *testing.T) {
	var s Session
	if s.Strategy != StrategyAuto {
		t.Errorf("zero-value session strategy = %v, want auto (the default)", s.Strategy)
	}
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "ta"}); err != nil || s.Strategy != StrategyTA {
		t.Errorf("SET strategy=ta failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "nj"}); err != nil || s.Strategy != StrategyNJ {
		t.Errorf("SET strategy=nj failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "pnj"}); err != nil || s.Strategy != StrategyPNJ {
		t.Errorf("SET strategy=pnj failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "pta"}); err != nil || s.Strategy != StrategyPTA {
		t.Errorf("SET strategy=pta failed: %v", err)
	}
	// Case-insensitive names and values, and the auto round-trip.
	if err := s.ApplySet(&sql.Set{Name: "Strategy", Value: "AUTO"}); err != nil || s.Strategy != StrategyAuto {
		t.Errorf("SET Strategy=AUTO failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "STRATEGY", Value: "Pnj"}); err != nil || s.Strategy != StrategyPNJ {
		t.Errorf("SET STRATEGY=Pnj failed: %v", err)
	}
	// Keyword values (the lexer upper-cases keywords) and unknown
	// names/values must produce errors that list the accepted
	// alternatives, not confusing downstream failures.
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "SELECT"}); err == nil ||
		!strings.Contains(err.Error(), "want auto, nj, ta, pnj or pta") {
		t.Errorf("SET strategy=select error must list alternatives, got %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "strateg", Value: "nj"}); err == nil ||
		!strings.Contains(err.Error(), "want strategy, join_workers, ta_nested_loop, calibration or memory_budget") {
		t.Errorf("unknown setting error must list setting names, got %v", err)
	}
	// memory_budget: plain bytes, binary suffixes, off, default — and the
	// resolution against a surface default.
	if err := s.ApplySet(&sql.Set{Name: "memory_budget", Value: "65536"}); err != nil || s.MemBudget != 65536 {
		t.Errorf("SET memory_budget=65536: %v (budget %d)", err, s.MemBudget)
	}
	if err := s.ApplySet(&sql.Set{Name: "MEMORY_BUDGET", Value: "64MB"}); err != nil || s.MemBudget != 64<<20 {
		t.Errorf("SET memory_budget=64MB: %v (budget %d)", err, s.MemBudget)
	}
	if s.EffectiveMemBudget(1<<30) != 64<<20 {
		t.Errorf("a set budget must override the surface default")
	}
	if err := s.ApplySet(&sql.Set{Name: "memory_budget", Value: "off"}); err != nil || s.MemBudget != -1 {
		t.Errorf("SET memory_budget=off: %v (budget %d)", err, s.MemBudget)
	}
	if s.EffectiveMemBudget(1<<30) != 0 {
		t.Errorf("memory_budget=off must defeat the surface default")
	}
	if err := s.ApplySet(&sql.Set{Name: "memory_budget", Value: "default"}); err != nil || s.MemBudget != 0 {
		t.Errorf("SET memory_budget=default: %v (budget %d)", err, s.MemBudget)
	}
	if s.EffectiveMemBudget(1<<30) != 1<<30 {
		t.Errorf("an unset budget must inherit the surface default")
	}
	for _, bad := range []string{"0", "-5", "nope", "12tb"} {
		if err := s.ApplySet(&sql.Set{Name: "memory_budget", Value: bad}); err == nil ||
			!strings.Contains(err.Error(), "memory_budget wants") {
			t.Errorf("SET memory_budget=%s must error with the accepted forms, got %v", bad, err)
		}
	}
	if err := s.ApplySet(&sql.Set{Name: "ta_nested_loop", Value: "on"}); err != nil || !s.TANestedLoop {
		t.Errorf("SET ta_nested_loop failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "join_workers", Value: "4"}); err != nil || s.Workers != 4 {
		t.Errorf("SET join_workers=4 failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "join_workers", Value: "0"}); err != nil || s.Workers != 0 {
		t.Errorf("SET join_workers=0 (auto) failed: %v", err)
	}
	if err := s.ApplySet(&sql.Set{Name: "join_workers", Value: "-1"}); err == nil {
		t.Errorf("negative join_workers must error")
	}
	if err := s.ApplySet(&sql.Set{Name: "join_workers", Value: "lots"}); err == nil {
		t.Errorf("non-numeric join_workers must error")
	}
	if err := s.ApplySet(&sql.Set{Name: "join_workers", Value: "1000000000"}); err == nil {
		t.Errorf("join_workers beyond MaxJoinWorkers must error (shared-server protection)")
	}
	if err := s.ApplySet(&sql.Set{Name: "strategy", Value: "bogus"}); err == nil {
		t.Errorf("bad strategy must error")
	}
	if err := s.ApplySet(&sql.Set{Name: "bogus", Value: "x"}); err == nil {
		t.Errorf("unknown setting must error")
	}
	if err := s.ApplySet(&sql.Set{Name: "ta_nested_loop", Value: "maybe"}); err == nil {
		t.Errorf("bad boolean must error")
	}
	if err := s.ApplySet(&sql.Set{Name: "calibration", Value: "/no/such/file.json"}); err == nil {
		t.Errorf("missing calibration file must error")
	}
	if s.Calib != nil {
		t.Errorf("failed calibration load must not change the session")
	}
}

// TestApplySetCalibration round-trips a calibration file through SET:
// loading installs it, "default" restores the embedded one.
func TestApplySetCalibration(t *testing.T) {
	cal := *DefaultCalibration()
	cal.TATuple = 12345
	data, err := cal.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var s Session
	if err := s.ApplySet(&sql.Set{Name: "calibration", Value: path}); err != nil {
		t.Fatalf("SET calibration = %q: %v", path, err)
	}
	if s.Calib == nil || s.Calib.TATuple != 12345 {
		t.Fatalf("loaded calibration not installed: %+v", s.Calib)
	}
	if err := s.ApplySet(&sql.Set{Name: "calibration", Value: "DEFAULT"}); err != nil || s.Calib != nil {
		t.Fatalf("SET calibration = default must restore the embedded calibration: %v (%+v)", err, s.Calib)
	}
	// A file with a typo'd field is rejected, not silently zero-filled.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"nj_tuple_nanos": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplySet(&sql.Set{Name: "calibration", Value: bad}); err == nil {
		t.Error("invalid calibration file must error")
	}
}

func TestExplain(t *testing.T) {
	cat := demoCatalog(t)
	st, err := sql.Parse("EXPLAIN SELECT Name FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE Hotel IS NULL LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	ex := st.(*sql.Explain)
	out, err := Explain(ex.Query, cat, &Session{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Limit", "Project", "Filter", "TPJoin [left-outer] strategy=NJ", "Scan a", "Scan b"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	// ANALYZE includes row counts.
	out, err = Explain(ex.Query, cat, &Session{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rows=") {
		t.Errorf("EXPLAIN ANALYZE missing rows:\n%s", out)
	}
}

func TestPseudoColumns(t *testing.T) {
	cat := demoCatalog(t)
	// Probability filter: Fig. 1b rows with p >= 0.4.
	out := mustRun(t,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE P >= 0.4", &Session{}, cat)
	if out.Len() != 4 {
		t.Errorf("P >= 0.4 rows = %d, want 4 (0.70, 0.49, 0.42, 0.80):\n%v", out.Len(), out)
	}
	for _, tu := range out.Tuples {
		if tu.Prob < 0.4 {
			t.Errorf("probability filter leaked %v", tu)
		}
	}
	// Temporal filter on start point.
	out = mustRun(t, "SELECT * FROM a WHERE Tstart >= 7", &Session{}, cat)
	if out.Len() != 1 || out.Tuples[0].Fact[0].AsString() != "Jim" {
		t.Errorf("Tstart filter wrong: %v", out)
	}
	out = mustRun(t, "SELECT * FROM b WHERE Tend <= 4", &Session{}, cat)
	if out.Len() != 1 || out.Tuples[0].Fact[0].AsString() != "hotel3" {
		t.Errorf("Tend filter wrong: %v", out)
	}
}

func TestPseudoColumnErrors(t *testing.T) {
	cat := demoCatalog(t)
	for _, src := range []string{
		"SELECT * FROM a WHERE P = 'high'", // string literal
		"SELECT * FROM a WHERE P IS NULL",  // NULL check
		"SELECT * FROM a WHERE a.P = 0.5",  // qualified: not a pseudo-col
	} {
		st, err := sql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(st.(*sql.Select), cat, &Session{}); err == nil {
			t.Errorf("Build(%q) must fail", src)
		}
	}
}

func TestFactColumnShadowsPseudo(t *testing.T) {
	// A real attribute named P wins over the pseudo-column.
	c := catalog.New()
	r := tp.NewRelation("odd", "P")
	r.Append(tp.Strings("boom"), interval.New(0, 1), 0.5)
	if err := c.Register(r); err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "SELECT * FROM odd WHERE P = 'boom'", &Session{}, c)
	if out.Len() != 1 {
		t.Errorf("fact attribute P must shadow the pseudo-column")
	}
}

func TestSetOpsViaSQL(t *testing.T) {
	cat := catalog.New()
	r := tp.NewRelation("r", "K")
	r.Append(tp.Strings("x"), interval.New(0, 6), 0.8)
	s := tp.NewRelation("s", "K")
	s.Append(tp.Strings("x"), interval.New(3, 9), 0.4)
	if err := cat.Register(r); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(s); err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, "SELECT * FROM r TP UNION s", &Session{}, cat)
	if out.Len() != 3 {
		t.Errorf("union rows = %d, want 3 ([0,3) [3,6) [6,9)):\n%v", out.Len(), out)
	}
	out = mustRun(t, "SELECT * FROM r TP INTERSECT s", &Session{}, cat)
	if out.Len() != 1 || !out.Tuples[0].T.Equal(interval.New(3, 6)) {
		t.Errorf("intersect wrong:\n%v", out)
	}
	out = mustRun(t, "SELECT * FROM r TP EXCEPT s", &Session{}, cat)
	if out.Len() != 2 {
		t.Errorf("except rows = %d, want 2:\n%v", out.Len(), out)
	}
	// Incompatible arities must fail at build time.
	two := tp.NewRelation("two", "A", "B")
	if err := cat.Register(two); err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse("SELECT * FROM r TP UNION two")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(st.(*sql.Select), cat, &Session{}); err == nil {
		t.Errorf("union-incompatible relations must fail")
	}
}

func TestDistinctViaSQL(t *testing.T) {
	cat := demoCatalog(t)
	// DISTINCT Loc over b: ZAK availability merges hotel1/hotel2 with OR
	// lineage; at [5,6) the probability is 1-0.4·0.3 = 0.88.
	out := mustRun(t, "SELECT DISTINCT Loc FROM b", &Session{}, cat)
	found := false
	for _, tu := range out.Tuples {
		if tu.Fact.String() == "ZAK" && tu.T.Equal(interval.New(5, 6)) {
			found = true
			if tu.Prob < 0.8799 || tu.Prob > 0.8801 {
				t.Errorf("merged ZAK prob = %g, want 0.88", tu.Prob)
			}
		}
	}
	if !found {
		t.Errorf("DISTINCT missing merged ZAK row:\n%v", out)
	}
	// DISTINCT * passes all columns through the lineage projection.
	out = mustRun(t, "SELECT DISTINCT * FROM a", &Session{}, cat)
	if out.Len() != 2 {
		t.Errorf("DISTINCT * over a must keep 2 rows, got %d", out.Len())
	}
	// EXPLAIN shows the distinct node.
	st, _ := sql.Parse("EXPLAIN SELECT DISTINCT Loc FROM b")
	txt, err := Explain(st.(*sql.Explain).Query, cat, &Session{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "LineageDistinct (Loc)") {
		t.Errorf("EXPLAIN missing LineageDistinct:\n%s", txt)
	}
}

func TestOrderByViaSQL(t *testing.T) {
	cat := demoCatalog(t)
	out := mustRun(t, "SELECT * FROM b ORDER BY Hotel", &Session{}, cat)
	hotels := []string{"hotel1", "hotel2", "hotel3"}
	for i, tu := range out.Tuples {
		if tu.Fact[0].AsString() != hotels[i] {
			t.Fatalf("ORDER BY Hotel wrong at %d: %v", i, out)
		}
	}
	out = mustRun(t, "SELECT * FROM b ORDER BY P DESC", &Session{}, cat)
	if out.Tuples[0].Prob != 0.9 || out.Tuples[2].Prob != 0.6 {
		t.Errorf("ORDER BY P DESC wrong: %v", out)
	}
	out = mustRun(t, "SELECT * FROM b ORDER BY Tstart", &Session{}, cat)
	if !out.Tuples[0].T.Equal(interval.New(1, 4)) {
		t.Errorf("ORDER BY Tstart wrong: %v", out)
	}
	// Composite key with LIMIT: top-2 most probable rows of the join.
	out = mustRun(t,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY P DESC, Name LIMIT 2",
		&Session{}, cat)
	if out.Len() != 2 || out.Tuples[0].Prob != 0.8 || out.Tuples[1].Prob != 0.7 {
		t.Errorf("top-2 wrong: %v", out)
	}
	// Unknown column errors.
	st, _ := sql.Parse("SELECT * FROM b ORDER BY Nope")
	if _, err := Build(st.(*sql.Select), cat, &Session{}); err == nil {
		t.Errorf("unknown ORDER BY column must fail")
	}

	// A qualified key resolves through its table, like WHERE: a.Loc and
	// b.Loc are distinct columns of the join, not one ambiguous name.
	sortedBy := func(src string, col int, desc bool) {
		t.Helper()
		out := mustRun(t, src, &Session{}, cat)
		if out.Len() < 2 {
			t.Fatalf("%s: %d rows", src, out.Len())
		}
		for i := 1; i < out.Len(); i++ {
			c := out.Tuples[i-1].Fact[col].Compare(out.Tuples[i].Fact[col])
			if desc {
				c = -c
			}
			if c > 0 {
				t.Fatalf("%s: rows %d and %d out of order on column %d:\n%v", src, i-1, i, col, out)
			}
		}
	}
	sortedBy("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY a.Loc", 1, false)
	sortedBy("SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY b.Loc DESC", 3, true)
	// Through a projection, the key maps to its position in the select list.
	sortedBy("SELECT b.Loc, a.Name FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY a.Name DESC", 1, true)
	for src, want := range map[string]string{
		// The anti join's output has no b columns: as in WHERE, b.Loc is unknown
		// (it used to sort by a.Loc silently).
		"SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc ORDER BY b.Loc":                    `unknown column "b.Loc"`,
		"SELECT a.Name FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY b.Loc":               `"b.Loc" is not in the select list`,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY Loc":                      `ambiguous ORDER BY column "Loc"`,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc ORDER BY c.Loc":                    `unknown column "c.Loc"`,
		"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE a.Loc = 'x' ORDER BY a.Nope": `unknown column "a.Nope"`,
	} {
		st, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(st.(*sql.Select), cat, &Session{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %s", src, err, want)
		}
	}
}

// TestExplainAnalyzeShannonSteps: the probability tail's Shannon-step
// count is printed under every strategy that has a tail to itself — 0
// while lineage stays read-once, > 0 once a statement leaves the linear
// path by joining a derived relation with its own source again (each
// output lineage then names an s event twice).
func TestExplainAnalyzeShannonSteps(t *testing.T) {
	r, s := dataset.Meteo(300, 1)
	cat := catalog.New()
	for _, rel := range []*tp.Relation{r, s} {
		if err := cat.Register(rel); err != nil {
			t.Fatal(err)
		}
	}
	t2 := mustRun(t, "SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key", &Session{}, cat)
	t2.Name = "t2"
	if err := cat.Register(t2); err != nil {
		t.Fatal(err)
	}
	steps := func(strat Strategy, src string) int64 {
		t.Helper()
		st, err := sql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := ExplainTree(context.Background(), st.(*sql.Select), cat, &Session{Strategy: strat}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range tree.Root.Stages {
			if sg.Name == "shannon-steps" {
				if !strings.Contains(tree.Render(), fmt.Sprintf("stage shannon-steps: %d", sg.Count)) {
					t.Errorf("%v: rendering lacks the shannon-steps line:\n%s", strat, tree.Render())
				}
				return sg.Count
			}
		}
		t.Fatalf("%v: no shannon-steps stage in %v", strat, tree.Root.Stages)
		return 0
	}
	for _, strat := range []Strategy{StrategyNJ, StrategyTA, StrategyPTA} {
		if n := steps(strat, "SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key"); n != 0 {
			t.Errorf("%v over base relations: shannon-steps = %d, want 0 (read-once lineage)", strat, n)
		}
		if n := steps(strat, "SELECT * FROM t2 TP LEFT JOIN s ON t2.Key = s.Key"); n == 0 {
			t.Errorf("%v re-joining a derived relation: shannon-steps = 0, want > 0", strat)
		}
	}
}

// TestExplainAnalyzeStructured pins the structured ANALYZE tree: rows and
// wall time per node, strategy stage counters on the join, and their text
// rendering.
func TestExplainAnalyzeStructured(t *testing.T) {
	cat := demoCatalog(t)
	st, err := sql.Parse("EXPLAIN ANALYZE SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ExplainTree(context.Background(), st.(*sql.Explain).Query, cat, &Session{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Analyze || tree.Root == nil {
		t.Fatalf("malformed tree: %+v", tree)
	}
	if tree.Root.Rows != 7 {
		t.Errorf("root rows = %d, want 7 (Fig. 1b left outer join)", tree.Root.Rows)
	}
	var names []string
	for _, sg := range tree.Root.Stages {
		names = append(names, sg.Name)
	}
	want := []string{"overlap", "lawau", "lawan", "prob-batches", "memo-hits", "shannon-steps"}
	if !slices.Equal(names, want) {
		t.Fatalf("NJ join stages = %v, want %v", names, want)
	}
	// 7 output rows fit in one probability batch.
	if got := tree.Root.Stages[3].Count; got != 1 {
		t.Errorf("prob-batches = %d, want 1", got)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("join children = %d, want 2 scans", len(tree.Root.Children))
	}
	// Scan inputs of a join are borrowed zero-copy (never pulled), in
	// instrumented and plain execution alike; rows=0 pins that ANALYZE
	// measures the real plan instead of draining copies of the inputs.
	if got := tree.Root.Children[0].Rows; got != 0 {
		t.Errorf("Scan a rows = %d, want 0 (zero-copy borrow)", got)
	}
	out := tree.Render()
	for _, want := range []string{"rows=7", "time=", "stage overlap: 3", "stage lawan: 7", "stage shannon-steps: 0", "total: time="} {
		if !strings.Contains(out, want) {
			t.Errorf("ANALYZE rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeCancelledReportsAbort: a cancelled ANALYZE is not an
// error — the tree comes back with the abort reason, so the diagnostic
// shows where the time went before the deadline hit.
func TestExplainAnalyzeCancelledReportsAbort(t *testing.T) {
	cat := demoCatalog(t)
	st, err := sql.Parse("EXPLAIN ANALYZE SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree, err := ExplainTree(ctx, st.(*sql.Explain).Query, cat, &Session{}, true)
	if err != nil {
		t.Fatalf("cancelled ANALYZE must return the tree, got error %v", err)
	}
	if tree.Abort == "" {
		t.Fatal("tree.Abort empty on a cancelled run")
	}
	if out := tree.Render(); !strings.Contains(out, "aborted: context canceled") {
		t.Errorf("rendering lacks the abort trailer:\n%s", out)
	}
}

// TestExplainKeepsPlanUnderOrderBy pins the shape of the benchmark's Meteo
// statements: ORDER BY puts a Sort between Limit and the rest, and the
// tree below it — the join with its strategy, cost lines and, under
// ANALYZE, its stage lines — must survive in the text and in the
// structured tree.
func TestExplainKeepsPlanUnderOrderBy(t *testing.T) {
	cat := demoCatalog(t)
	const q = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE p >= 0.2 ORDER BY P DESC LIMIT 2"
	st, err := sql.Parse("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	for _, analyze := range []bool{false, true} {
		tree, err := ExplainTree(context.Background(), st.(*sql.Explain).Query, cat, &Session{}, analyze)
		if err != nil {
			t.Fatal(err)
		}
		n := tree.Root
		for _, want := range []string{"Limit", "Sort", "Filter", "TPJoin"} {
			if n == nil || !strings.HasPrefix(n.Desc, want) {
				t.Fatalf("analyze=%v: want %s on the Limit → Sort → Filter → TPJoin spine, got %+v:\n%s",
					analyze, want, n, tree.Render())
			}
			if want != "TPJoin" {
				if len(n.Children) != 1 {
					t.Fatalf("analyze=%v: %s has %d children, want 1:\n%s", analyze, want, len(n.Children), tree.Render())
				}
				n = n.Children[0]
			}
		}
		if n.Pick == nil || len(n.Children) != 2 {
			t.Errorf("analyze=%v: join lost its cost record or scans: %+v", analyze, n)
		}
		out := tree.Render()
		wants := []string{"cost:", "stats a:", "Scan b"}
		if analyze {
			wants = append(wants, "stage overlap:", "stage lawan:")
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("analyze=%v: rendering lacks %q:\n%s", analyze, want, out)
			}
		}
	}
}
