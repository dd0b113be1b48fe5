package plan

import (
	"fmt"
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
	cache := NewCache(8)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")

	first, cached := runPrepared(t, cache, cat, sess, p)
	if cached {
		t.Fatal("first EXECUTE must miss the empty cache")
	}
	second, cached := runPrepared(t, cache, cat, sess, p)
	if !cached {
		t.Fatal("second EXECUTE of an unchanged catalog must hit")
	}
	f, s := canonical(first), canonical(second)
	if len(f) == 0 || fmt.Sprint(f) != fmt.Sprint(s) {
		t.Errorf("cached plan changed the result:\n  fresh  %v\n  cached %v", f, s)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Invalidations != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestPlanCacheVersionBumpInvalidates pins the staleness contract: a
// mutation that moves a referenced relation's Stamp without changing its
// length (an in-place sort) must force a re-plan.
func TestPlanCacheVersionBumpInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(8)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")

	if _, cached := runPrepared(t, cache, cat, sess, p); cached {
		t.Fatal("first EXECUTE must miss")
	}
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
	if _, cached := runPrepared(t, cache, cat, sess, p); cached {
		t.Fatal("EXECUTE after a version-only bump must re-plan")
	}
	st := cache.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The re-published entry is valid again for the mutated relation.
	if _, cached := runPrepared(t, cache, cat, sess, p); !cached {
		t.Error("EXECUTE after the re-plan must hit the fresh entry")
	}
}

// TestPlanCacheReRegisterInvalidates pins the identity half of the
// contract: replacing a relation under the same name invalidates even
// when the replacement happens to match the old Stamp —
// the weak pointer no longer resolves to the catalog's current relation.
func TestPlanCacheReRegisterInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(8)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	if _, cached := runPrepared(t, cache, cat, sess, p); cached {
		t.Fatal("first EXECUTE must miss")
	}

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
	if _, cached := runPrepared(t, cache, cat, sess, p); cached {
		t.Fatal("EXECUTE after a same-name re-registration must re-plan")
	}
	if st := cache.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestPlanCacheDropInvalidates(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(8)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a")
	runPrepared(t, cache, cat, sess, p)
	cat.Drop("a")
	if _, _, err := PlanPrepared(cache, cat, sess, p, nil); err == nil {
		t.Fatal("EXECUTE over a dropped relation must fail, not serve the stale plan")
	}
	if st := cache.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestPlanCacheKeyIncludesSessionSettings: two sessions differing in a
// plan-relevant setting must not share an entry.
func TestPlanCacheKeyIncludesSessionSettings(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(8)
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")

	runPrepared(t, cache, cat, &Session{Strategy: StrategyNJ}, p)
	if _, cached := runPrepared(t, cache, cat, &Session{Strategy: StrategyTA}, p); cached {
		t.Error("a different forced strategy must plan its own entry")
	}
	if _, cached := runPrepared(t, cache, cat, &Session{Strategy: StrategyNJ}, p); !cached {
		t.Error("the NJ entry must survive the TA plan alongside it")
	}
	if cache.Len() != 2 {
		t.Errorf("entries = %d, want 2 (one per strategy)", cache.Len())
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	cat := demoCatalog(t)
	cache := NewCache(2)
	sess := &Session{}
	ps := []*Prepared{
		mustPrepare(t, "PREPARE q1 AS SELECT * FROM a"),
		mustPrepare(t, "PREPARE q2 AS SELECT * FROM b"),
		mustPrepare(t, "PREPARE q3 AS SELECT * FROM a WHERE Loc = 'ZAK'"),
	}
	for _, p := range ps {
		runPrepared(t, cache, cat, sess, p)
	}
	st := cache.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	// q1 was the least recently used: it re-plans, q3 still hits.
	if _, cached := runPrepared(t, cache, cat, sess, ps[2]); !cached {
		t.Error("most recent entry must have survived eviction")
	}
	if _, cached := runPrepared(t, cache, cat, sess, ps[0]); cached {
		t.Error("least recently used entry must have been evicted")
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

func TestPlanPreparedNilCachePlansFresh(t *testing.T) {
	cat := demoCatalog(t)
	sess := &Session{}
	p := mustPrepare(t, "PREPARE q AS SELECT * FROM a WHERE Loc = $1")
	for i := 0; i < 2; i++ {
		op, cached, err := PlanPrepared(nil, cat, sess, p, []sql.Literal{{IsString: true, Str: "ZAK"}})
		if err != nil || cached {
			t.Fatalf("nil cache run %d: cached=%t err=%v, want fresh plan", i, cached, err)
		}
		out, err := engine.Run(op, "r")
		if err != nil || out.Len() != 1 {
			t.Fatalf("nil cache run %d: %v (rows %d)", i, err, out.Len())
		}
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
		cache := NewCache(8)
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
