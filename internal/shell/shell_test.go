package shell

import (
	"bytes"
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tpjoin/internal/catalog"
	"tpjoin/internal/interval"
	"tpjoin/internal/oracle"
	"tpjoin/internal/tp"
)

func run(t *testing.T, sh *Shell, line string) string {
	t.Helper()
	buf := sh.Out.(*bytes.Buffer)
	buf.Reset()
	if quit := sh.Execute(line); quit {
		t.Fatalf("unexpected quit on %q", line)
	}
	return buf.String()
}

func newShell() *Shell { return New(&bytes.Buffer{}) }

func TestPreloadedExample(t *testing.T) {
	sh := newShell()
	out := run(t, sh, `\d`)
	if !strings.Contains(out, "a(Name, Loc) — 2 tuples") ||
		!strings.Contains(out, "b(Hotel, Loc) — 3 tuples") {
		t.Errorf("\\d output wrong:\n%s", out)
	}
}

func TestSelectFig1b(t *testing.T) {
	sh := newShell()
	out := run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "(7 rows)") {
		t.Errorf("expected 7 rows:\n%s", out)
	}
	if !strings.Contains(out, "a1 ∧ ¬(b3 ∨ b2)") || !strings.Contains(out, "0.084") {
		t.Errorf("missing the negated lineage row:\n%s", out)
	}
}

// TestFig1bEveryStrategy: the Fig. 1a LEFT join returns NJ's seven rows
// of Fig. 1b as a bag under every strategy — TA and PTA form each pairing
// once, over the overlap of its two tuples, not once per fragment.
func TestFig1bEveryStrategy(t *testing.T) {
	const q = "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"
	eval := func(settings ...string) *tp.Relation {
		t.Helper()
		core := NewCore(catalog.New())
		PreloadFig1a(core.Catalog)
		for _, line := range append(settings, q) {
			res, err := core.Eval(context.Background(), line)
			if err != nil {
				t.Fatalf("%q after %v: %v", line, settings, err)
			}
			if res.Rel != nil {
				return res.Rel
			}
		}
		t.Fatalf("%q returned no rows", q)
		return nil
	}
	nj := eval("SET strategy = nj")
	if nj.Len() != 7 {
		t.Fatalf("NJ returns %d rows, want Fig. 1b's 7", nj.Len())
	}
	for _, settings := range [][]string{
		{"SET strategy = ta"},
		{"SET strategy = ta", "SET ta_nested_loop = on"},
		{"SET strategy = pta", "SET join_workers = 2"},
	} {
		got := eval(settings...)
		if got.Len() != nj.Len() {
			t.Errorf("%v: %d rows, want NJ's %d", settings, got.Len(), nj.Len())
		}
		if err := oracle.Cross(nj, got); err != nil {
			t.Errorf("%v: %v", settings, err)
		}
	}
}

func TestSetAndExplain(t *testing.T) {
	sh := newShell()
	if out := run(t, sh, "SET strategy = ta"); !strings.Contains(out, "ok") {
		t.Errorf("SET failed: %s", out)
	}
	out := run(t, sh, "EXPLAIN SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "strategy=TA") {
		t.Errorf("strategy must show in EXPLAIN:\n%s", out)
	}
	out = run(t, sh, "EXPLAIN ANALYZE SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "rows=") {
		t.Errorf("ANALYZE must show rows:\n%s", out)
	}
}

func TestSetPNJAndWorkers(t *testing.T) {
	sh := newShell()
	if out := run(t, sh, "SET strategy = pnj"); !strings.Contains(out, "ok") {
		t.Errorf("SET strategy=pnj failed: %s", out)
	}
	if out := run(t, sh, "SET join_workers = 2"); !strings.Contains(out, "ok") {
		t.Errorf("SET join_workers failed: %s", out)
	}
	out := run(t, sh, "EXPLAIN SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "strategy=PNJ workers=2") {
		t.Errorf("PNJ must show in EXPLAIN:\n%s", out)
	}
	out = run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "(7 rows)") {
		t.Errorf("PNJ Fig. 1b query must return 7 rows:\n%s", out)
	}
}

func TestSetPTA(t *testing.T) {
	sh := newShell()
	if out := run(t, sh, "SET strategy = pta"); !strings.Contains(out, "ok") {
		t.Errorf("SET strategy=pta failed: %s", out)
	}
	if out := run(t, sh, "SET join_workers = 2"); !strings.Contains(out, "ok") {
		t.Errorf("SET join_workers failed: %s", out)
	}
	out := run(t, sh, "EXPLAIN SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "strategy=PTA workers=2") {
		t.Errorf("PTA must show in EXPLAIN:\n%s", out)
	}
	// PTA returns the sequential baseline's (TA's) rows; only the row
	// order may differ (partition-major vs global union order).
	got := strings.Split(run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"), "\n")
	ta := newShell()
	run(t, ta, "SET strategy = ta")
	want := strings.Split(run(t, ta, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"), "\n")
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("PTA result differs from TA:\nPTA:\n%s\nTA:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	out = run(t, sh, "EXPLAIN ANALYZE SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	for _, want := range []string{"stage workers:", "stage partitions:", "stage align-passes:", "stage fragments:", "stage shannon-steps: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("PTA ANALYZE missing %q:\n%s", want, out)
		}
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	sh := newShell()
	for _, line := range []string{
		"SELECT * FROM missing",
		"SELEC nonsense",
		"SET bogus = 1",
		`\load too few`,
		`\load x /nonexistent/file.csv`,
		`\save missing /tmp/x.csv`,
		`\gen bogus 100`,
		`\gen webkit notanumber`,
		`\nosuchcmd`,
	} {
		out := run(t, sh, line)
		if !strings.Contains(out, "error") && !strings.Contains(out, "usage") &&
			!strings.Contains(out, "unknown") {
			t.Errorf("line %q should report an error, got: %s", line, out)
		}
	}
}

func TestQuit(t *testing.T) {
	sh := newShell()
	if !sh.Execute(`\q`) || !sh.Execute(`\quit`) {
		t.Errorf("\\q must quit")
	}
	if sh.Execute("") || sh.Execute("   ") {
		t.Errorf("blank lines must not quit")
	}
}

func TestGenAndQuery(t *testing.T) {
	sh := newShell()
	out := run(t, sh, `\gen webkit 400`)
	if !strings.Contains(out, "generated r") {
		t.Fatalf("gen failed: %s", out)
	}
	out = run(t, sh, "SELECT * FROM r TP ANTI JOIN s ON r.Key = s.Key LIMIT 3")
	if !strings.Contains(out, "(3 rows)") {
		t.Errorf("query over generated data failed:\n%s", out)
	}
}

func TestSaveLoadDrop(t *testing.T) {
	sh := newShell()
	path := filepath.Join(t.TempDir(), "a.csv")
	out := run(t, sh, `\save a `+path)
	if !strings.Contains(out, "saved a") {
		t.Fatalf("save failed: %s", out)
	}
	out = run(t, sh, `\load acopy `+path)
	if !strings.Contains(out, "loaded acopy: 2 tuples") {
		t.Fatalf("load failed: %s", out)
	}
	out = run(t, sh, "SELECT * FROM acopy")
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("loaded relation not queryable:\n%s", out)
	}
	out = run(t, sh, `\drop acopy`)
	if !strings.Contains(out, "dropped acopy") {
		t.Errorf("drop failed: %s", out)
	}
	out = run(t, sh, `\drop acopy`)
	if !strings.Contains(out, "error") {
		t.Errorf("double drop must error: %s", out)
	}
}

func TestHelp(t *testing.T) {
	sh := newShell()
	out := run(t, sh, `\help`)
	for _, want := range []string{"TP", "ANTI", "strategy", `\gen`} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}

func TestProbabilityFilterEndToEnd(t *testing.T) {
	sh := newShell()
	out := run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc WHERE P >= 0.4")
	if !strings.Contains(out, "(4 rows)") {
		t.Errorf("probability filter via shell wrong:\n%s", out)
	}
}

func TestBinarySaveLoad(t *testing.T) {
	sh := newShell()
	// Materialize a derived relation, persist it in the binary format and
	// reload it — the workflow CSV cannot support (lineage loss).
	out := run(t, sh, "CREATE TABLE q AS SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "created q: 7 tuples") {
		t.Fatalf("CREATE TABLE AS failed: %s", out)
	}
	path := filepath.Join(t.TempDir(), "b.tpr")
	out = run(t, sh, `\saveb q `+path)
	if !strings.Contains(out, "saved q") {
		t.Fatalf("saveb failed: %s", out)
	}
	out = run(t, sh, `\loadb qcopy `+path)
	if !strings.Contains(out, "loaded qcopy: 7 tuples") {
		t.Fatalf("loadb failed: %s", out)
	}
	out = run(t, sh, "SELECT * FROM qcopy ORDER BY P DESC LIMIT 1")
	if !strings.Contains(out, "Jim") {
		t.Errorf("reloaded binary relation not queryable:\n%s", out)
	}
	// The reloaded derived relation keeps its composite lineages.
	out = run(t, sh, "SELECT * FROM qcopy WHERE Hotel IS NULL AND Tstart >= 5 LIMIT 1")
	if !strings.Contains(out, "¬") {
		t.Errorf("lineage lost in binary round trip:\n%s", out)
	}
	// Usage errors.
	if out := run(t, sh, `\saveb onlyone`); !strings.Contains(out, "usage") {
		t.Errorf("saveb usage: %s", out)
	}
	if out := run(t, sh, `\loadb x /nonexistent.tpr`); !strings.Contains(out, "error") {
		t.Errorf("loadb missing file: %s", out)
	}
}

func TestOrderByInShell(t *testing.T) {
	sh := newShell()
	out := run(t, sh, "SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc ORDER BY P DESC LIMIT 1")
	if !strings.Contains(out, "Jim") {
		t.Errorf("most probable anti-join row must be Jim (0.8):\n%s", out)
	}
}

func TestStatsBuiltin(t *testing.T) {
	sh := newShell()
	out := run(t, sh, `\stats b`)
	for _, want := range []string{
		"b: 3 tuples, 2 columns",
		"Hotel: 3 distinct, 0 null, group mean 1.0 max 1",
		"Loc: 2 distinct, 0 null, group mean 1.5 max 2",
		"time: span [1,8)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("\\stats missing %q:\n%s", want, out)
		}
	}
	if out := run(t, sh, `\stats`); !strings.Contains(out, "usage") {
		t.Errorf("\\stats without a name must print usage: %s", out)
	}
	if out := run(t, sh, `\stats nope`); !strings.Contains(out, "error") {
		t.Errorf("\\stats on a missing relation must error: %s", out)
	}
}

// TestQueryPanicBecomesError pins the REPL's panic containment, mirroring
// the server's: an engine panic (here tp.MergeProbs' conflicting
// base-event probabilities, the state a stale CREATE TABLE AS snapshot
// joined against a regenerated workload produces) becomes that query's
// error instead of killing the whole shell.
func TestQueryPanicBecomesError(t *testing.T) {
	sh := newShell()
	x := tp.NewRelation("x", "K")
	x.Append(tp.Strings("k"), interval.New(0, 5), 0.5)
	// y claims a different probability for x's base event x1: build it
	// under the name "x" (so Append assigns the same lineage variable)
	// and rename before registration.
	y := tp.NewRelation("x", "K")
	y.Append(tp.Strings("k"), interval.New(0, 5), 0.7)
	y.Name = "y"
	if err := sh.Catalog().Register(x); err != nil {
		t.Fatal(err)
	}
	if err := sh.Catalog().Register(y); err != nil {
		t.Fatal(err)
	}
	out := run(t, sh, "SELECT * FROM x TP JOIN y ON x.K = y.K")
	if !strings.Contains(out, "error: query panic:") ||
		!strings.Contains(out, "conflicting probabilities") {
		t.Errorf("panic must surface as a query error:\n%s", out)
	}
	// The session survives and keeps working.
	out = run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if !strings.Contains(out, "(7 rows)") {
		t.Errorf("shell did not survive the panic:\n%s", out)
	}
}
