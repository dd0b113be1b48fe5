package plan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpjoin/internal/catalog"
	"tpjoin/internal/dataset"
	"tpjoin/internal/engine"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

// mustPrepare parses a PREPARE statement and pins it.
func mustPrepare(t *testing.T, src string) *Prepared {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, ok := st.(*sql.Prepare)
	if !ok {
		t.Fatalf("parse %q: got %T, want *sql.Prepare", src, st)
	}
	return NewPrepared(p)
}

// runPrepared plans and executes one EXECUTE of p, reporting the cache
// outcome.
func runPrepared(t *testing.T, cache *Cache, cat *catalog.Catalog, sess *Session, p *Prepared, params ...sql.Literal) (*tp.Relation, bool) {
	t.Helper()
	op, cached, err := PlanPrepared(cache, cat, sess, p, params)
	if err != nil {
		t.Fatalf("PlanPrepared(%s): %v", p.Name, err)
	}
	out, err := engine.Run(op, "result")
	if err != nil {
		t.Fatalf("run %s: %v", p.Name, err)
	}
	return out, cached
}

func TestPlanCacheHitOnRepeatedExecute(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(0)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")

	first, cached := runPrepared(t, cache, cat, sess, p)
	if cached {
		t.Fatal("first EXECUTE must plan fresh")
	}
	second, cached := runPrepared(t, cache, cat, sess, p)
	if !cached {
		t.Fatal("second EXECUTE of an unchanged catalog must hit")
	}
	f, s := canonical(first), canonical(second)
	if len(f) == 0 || fmt.Sprint(f) != fmt.Sprint(s) {
		t.Errorf("memoized plan changed the result:\n  fresh  %v\n  cached %v", f, s)
	}
	if st := cache.Stats(); st != (CacheStats{Hits: 1, Misses: 1}) {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// wantMissThenHit runs p twice and fails unless the first EXECUTE plans
// fresh and the second reuses its memo.
func wantMissThenHit(t *testing.T, cat *catalog.Catalog, sess *Session, p *Prepared, after string) {
	t.Helper()
	if _, cached := runPrepared(t, nil, cat, sess, p); cached {
		t.Errorf("EXECUTE after %s must re-plan", after)
	}
	if _, cached := runPrepared(t, nil, cat, sess, p); !cached {
		t.Errorf("second EXECUTE after %s must hit the fresh memo", after)
	}
}

// TestPlanCacheVersionBumpInvalidates pins the staleness contract: a
// mutation that moves a referenced relation's Stamp without changing its
// length (an in-place sort) must force a re-plan.
func TestPlanCacheVersionBumpInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	runPrepared(t, nil, cat, sess, p)

	b, err := cat.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	lenBefore, stampBefore := b.Len(), b.Stamp()
	b.SortByStart() // version-only bump: length is unchanged
	if b.Len() != lenBefore || b.Stamp() == stampBefore {
		t.Fatalf("test premise broken: len %d→%d stamp %v→%v",
			lenBefore, b.Len(), stampBefore, b.Stamp())
	}
	wantMissThenHit(t, cat, sess, p, "a version-only bump")
}

// TestPlanCacheReRegisterInvalidates pins the identity half of the
// contract: replacing a relation under the same name forces a re-plan
// even when the replacement happens to match the old Stamp — the weak
// pointer no longer matches the catalog's current relation.
func TestPlanCacheReRegisterInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	runPrepared(t, nil, cat, sess, p)

	old, err := cat.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild b tuple by tuple: the same Append sequence yields the same
	// Stamp, so only pointer identity can tell them apart.
	repl := tp.NewRelation("b", old.Attrs...)
	for _, tu := range old.Tuples {
		repl.Append(tu.Fact, tu.T, tu.Prob)
	}
	if repl.Stamp() != old.Stamp() {
		t.Fatalf("test premise broken: clone stamp differs: %v vs %v", repl.Stamp(), old.Stamp())
	}
	if err := cat.Register(repl); err != nil {
		t.Fatal(err)
	}
	wantMissThenHit(t, cat, sess, p, "a same-name re-registration")
}

func TestPlanCacheDropInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a")
	runPrepared(t, nil, cat, sess, p)
	cat.Drop("a")
	if _, _, err := PlanPrepared(nil, cat, sess, p, nil); err == nil {
		t.Fatal("EXECUTE over a dropped relation must fail, not serve the stale plan")
	}
	// A relation registered under the dropped name is planned afresh.
	fresh := demoCatalog(t)
	a, err := fresh.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(a); err != nil {
		t.Fatal(err)
	}
	wantMissThenHit(t, cat, sess, p, "a drop and re-creation")
}

// TestPlanCacheKeyIncludesSessionSettings: changing any plan-relevant
// setting — strategy, ta_nested_loop, join_workers or calibration —
// makes the next EXECUTE re-plan, and the one after it hit. After a
// calibration switch the EXPLAIN EXECUTE cost line is the new file's, not
// a memo priced under the old one.
func TestPlanCacheKeyIncludesSessionSettings(t *testing.T) {
	cat := demoCatalog(t)
	const query = "SELECT * FROM a TP JOIN b ON a.Loc = b.Loc"
	p := mustPrepare(t, "PREPARE q AS "+query)
	calib := func(njTuple float64) string {
		cal := *DefaultCalibration()
		cal.NJTuple = njTuple
		data, err := cal.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cal.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sess := &Session{}
	wantMissThenHit(t, cat, sess, p, "PREPARE")
	for _, set := range []sql.Set{
		{Name: "strategy", Value: "ta"},
		{Name: "ta_nested_loop", Value: "on"},
		{Name: "join_workers", Value: "2"},
		{Name: "calibration", Value: calib(1e3)},
	} {
		if err := sess.ApplySet(&set); err != nil {
			t.Fatal(err)
		}
		wantMissThenHit(t, cat, sess, p, "SET "+set.Name)
	}

	costLine := func(tree *Tree) string {
		for _, l := range strings.Split(tree.Render(), "\n") {
			if strings.Contains(l, "cost:") {
				return strings.TrimSpace(l)
			}
		}
		t.Fatalf("no cost line in\n%s", tree.Render())
		return ""
	}
	explain := func() string {
		tree, err := ExplainPrepared(context.Background(), nil, cat, sess, p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return costLine(tree)
	}
	old := explain()
	if err := sess.ApplySet(&sql.Set{Name: "calibration", Value: calib(1e6)}); err != nil {
		t.Fatal(err)
	}
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	freshTree, err := ExplainTree(context.Background(), st.(*sql.Select), cat, sess, false)
	if err != nil {
		t.Fatal(err)
	}
	fresh := costLine(freshTree)
	if fresh == old {
		t.Fatalf("test premise broken: both calibrations price %q", fresh)
	}
	for run := range 2 {
		if got := explain(); got != fresh {
			t.Errorf("EXPLAIN EXECUTE %d under the new calibration: %q, want %q", run, got, fresh)
		}
	}
}

// TestPlanCacheReprepareAfterDeallocate: DEALLOCATE drops the session's
// Prepared and with it the memo, so a PREPARE of the same name and text
// pins a new statement whose first EXECUTE plans fresh.
func TestPlanCacheReprepareAfterDeallocate(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(0)
	sess := &Session{}
	const src = "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc"
	wantMissThenHit(t, cat, sess, mustPrepare(t, src), "PREPARE")
	p := mustPrepare(t, src)
	if _, cached := runPrepared(t, cache, cat, sess, p); cached {
		t.Error("first EXECUTE of a re-PREPARE'd statement must plan fresh")
	}
	if _, cached := runPrepared(t, cache, cat, sess, p); !cached {
		t.Error("second EXECUTE of a re-PREPARE'd statement must hit")
	}
}

func TestPlanPreparedBindErrors(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a WHERE Loc = $1")
	_, _, err := PlanPrepared(nil, cat, sess, p, nil)
	if err == nil || !strings.Contains(err.Error(), "wants 1 parameter(s), got 0") {
		t.Errorf("unbound EXECUTE: %v, want parameter-count error", err)
	}
	_, _, err = PlanPrepared(nil, cat, sess, p, []sql.Literal{
		{IsString: true, Str: "ZAK"}, {Num: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "wants 1 parameter(s), got 2") {
		t.Errorf("over-bound EXECUTE: %v, want parameter-count error", err)
	}
}

// TestDifferentialExecuteVsInlineSelect is the EXECUTE column of the
// differential harness: across every forced strategy and both synthetic
// workloads, a parameterized EXECUTE — cold and cache-hot — must stay
// byte-identical to the equivalent inline SELECT with the literal spelled
// out.
func TestDifferentialExecuteVsInlineSelect(t *testing.T) {
	strategies := map[string]Strategy{
		"nj": StrategyNJ, "ta": StrategyTA, "pnj": StrategyPNJ, "pta": StrategyPTA,
	}
	workloads := []struct {
		name string
		r, s *tp.Relation
	}{}
	r, s := dataset.Webkit(1500, 7)
	workloads = append(workloads, struct {
		name string
		r, s *tp.Relation
	}{"webkit", r, s})
	r, s = dataset.Meteo(1500, 7)
	workloads = append(workloads, struct {
		name string
		r, s *tp.Relation
	}{"meteo", r, s})

	const inline = "SELECT * FROM r TP JOIN s ON r.Key = s.Key WHERE p >= 0.25"
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM r TP JOIN s ON r.Key = s.Key WHERE p >= ?")
	param := sql.Literal{Num: 0.25}

	for _, in := range workloads {
		cat := catalog.New()
		if err := cat.Register(in.r); err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(in.s); err != nil {
			t.Fatal(err)
		}
		cache := NewCache(0)
		for name, strat := range strategies {
			sess := &Session{Strategy: strat, Workers: 2}
			ref := canonical(runSQLJoin(t, cat, sess, inline))
			if len(ref) == 0 {
				t.Fatalf("%s/%s: empty reference result", in.name, name)
			}
			cold, cached := runPrepared(t, cache, cat, sess, p, param)
			if cached {
				t.Fatalf("%s/%s: first EXECUTE must be cold", in.name, name)
			}
			hot, cached := runPrepared(t, cache, cat, sess, p, param)
			if !cached {
				t.Fatalf("%s/%s: second EXECUTE must hit", in.name, name)
			}
			for run, rel := range map[string]*tp.Relation{"cold": cold, "hot": hot} {
				got := canonical(rel)
				if len(got) != len(ref) {
					t.Errorf("%s/%s %s EXECUTE: %d vs %d coalesced tuples",
						in.name, name, run, len(got), len(ref))
					continue
				}
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("%s/%s %s EXECUTE: line %d differs:\n  want %s\n  got  %s",
							in.name, name, run, i, ref[i], got[i])
					}
				}
			}
		}
	}
}

// TestParseByteSizeNormalization is the regression test for the
// flag-vs-SET divergence: ParseByteSize used to lower-case only inside
// SET handling, so `-memory-budget 256MB` failed while
// `SET memory_budget = 256mb` worked. The normalization now lives in
// ParseByteSize itself, making the two surfaces byte-identical.
func TestParseByteSizeNormalization(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"65536", 65536, true},
		{"64kb", 64 << 10, true},
		{"64KB", 64 << 10, true},
		{"256mb", 256 << 20, true},
		{"256MB", 256 << 20, true}, // the -memory-budget 256MB regression
		{"256Mb", 256 << 20, true},
		{"2gb", 2 << 30, true},
		{"2G", 2 << 30, true},
		{"  64 kb  ", 64 << 10, true}, // embedded + surrounding whitespace
		{"1k", 1 << 10, true},
		{"1m", 1 << 20, true},
		{"", 0, false},
		{"kb", 0, false},                    // suffix only
		{"-1", 0, false},                    // negative
		{"0", 0, false},                     // zero
		{"4611686018427387903kb", 0, false}, // (1<<62)/1024 + overflow
		{"9223372036854775807", 0, false},   // > 1<<62
		{"12.5mb", 0, false},                // no fractional sizes
		{"64qb", 0, false},                  // unknown suffix
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want error", c.in, got)
		}
	}
	// The two surfaces accept byte-identical spellings: whatever the flag
	// parses, SET memory_budget parses to the same budget.
	for _, v := range []string{"256MB", "256mb", "64 kb", "2G"} {
		want, err := ParseByteSize(v)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", v, err)
		}
		s := &Session{}
		if err := s.ApplySet(&sql.Set{Name: "memory_budget", Value: v}); err != nil {
			t.Errorf("SET memory_budget = %s: %v", v, err)
		} else if s.MemBudget != want {
			t.Errorf("SET memory_budget = %s: budget %d, flag parses %d", v, s.MemBudget, want)
		}
	}
}
