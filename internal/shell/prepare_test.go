package shell

import (
	"context"
	"strings"
	"testing"
)

func TestPrepareExecuteDeallocate(t *testing.T) {
	sh := newShell()
	out := run(t, sh, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc WHERE a.Loc = ?")
	if !strings.Contains(out, "prepared q (1 parameter(s))") {
		t.Fatalf("PREPARE output wrong:\n%s", out)
	}
	ref := run(t, sh, "SELECT * FROM a TP JOIN b ON a.Loc = b.Loc WHERE a.Loc = 'ZAK'")
	got := run(t, sh, "EXECUTE q ('ZAK')")
	if got != ref {
		t.Errorf("EXECUTE output differs from the inline SELECT:\n  inline  %q\n  execute %q", ref, got)
	}
	if out := run(t, sh, "EXECUTE q ('ZAK')"); out != ref {
		t.Errorf("repeated (cache-hot) EXECUTE output differs:\n%s", out)
	}
	if out := run(t, sh, "DEALLOCATE q"); !strings.Contains(out, "deallocated") {
		t.Errorf("DEALLOCATE output wrong:\n%s", out)
	}
	if out := run(t, sh, "EXECUTE q ('ZAK')"); !strings.Contains(out, "no prepared statement") {
		t.Errorf("EXECUTE after DEALLOCATE must fail:\n%s", out)
	}
}

func TestPrepareErrorsAreReportedNotFatal(t *testing.T) {
	sh := newShell()
	run(t, sh, "PREPARE q AS SELECT * FROM a WHERE Loc = $1")
	for line, want := range map[string]string{
		"PREPARE q AS SELECT * FROM b":  "already exists",
		"EXECUTE q":                     "wants 1 parameter(s), got 0",
		"EXECUTE nope ('x')":            "no prepared statement",
		"DEALLOCATE nope":               "no prepared statement",
		"SELECT * FROM a WHERE Loc = ?": "PREPARE",
	} {
		if out := run(t, sh, line); !strings.Contains(out, want) {
			t.Errorf("%s: output %q lacks %q", line, out, want)
		}
	}
	// The session survives every one of those; the statement still runs.
	if out := run(t, sh, "EXECUTE q ('ZAK')"); !strings.Contains(out, "(1 row") {
		t.Errorf("EXECUTE q after errors:\n%s", out)
	}
}

func TestPreparedBuiltinLists(t *testing.T) {
	sh := newShell()
	if out := run(t, sh, `\prepared`); !strings.Contains(out, "(none)") {
		t.Errorf("empty \\prepared:\n%s", out)
	}
	run(t, sh, "PREPARE beta AS SELECT * FROM b")
	run(t, sh, "PREPARE alpha AS SELECT * FROM a WHERE Loc = $1")
	out := run(t, sh, `\prepared`)
	ai, bi := strings.Index(out, "alpha"), strings.Index(out, "beta")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("\\prepared must list both, sorted:\n%s", out)
	}
	if !strings.Contains(out, "alpha (1 parameter(s))") {
		t.Errorf("\\prepared must show the parameter count:\n%s", out)
	}
}

// TestPreparedTextReparses: the statement text \prepared lists can be
// pasted back as a statement — small and very large numeric literals
// print in plain decimal, not exponent form the lexer cannot read.
func TestPreparedTextReparses(t *testing.T) {
	sh := newShell()
	run(t, sh, "PREPARE q AS SELECT * FROM a WHERE P >= 0.00001")
	run(t, sh, "PREPARE r AS SELECT * FROM a WHERE P <= 123456789012345678901234567890")
	for _, line := range strings.Split(strings.TrimSpace(run(t, sh, `\prepared`)), "\n") {
		_, text, ok := strings.Cut(line, " — ")
		if !ok {
			t.Fatalf("unexpected \\prepared line %q", line)
		}
		if _, err := sh.Core.Eval(context.Background(), text); err != nil {
			t.Errorf("listed text %q does not re-run: %v", text, err)
		}
	}
}

func TestExplainExecuteReportsPlanSource(t *testing.T) {
	sh := newShell()
	run(t, sh, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	out := run(t, sh, "EXPLAIN EXECUTE q")
	if !strings.Contains(out, "plan: fresh") {
		t.Errorf("first EXPLAIN EXECUTE must plan fresh:\n%s", out)
	}
	out = run(t, sh, "EXPLAIN EXECUTE q")
	if !strings.Contains(out, "plan: cached") {
		t.Errorf("second EXPLAIN EXECUTE must report the cache hit:\n%s", out)
	}
	out = run(t, sh, "EXPLAIN ANALYZE EXECUTE q")
	if !strings.Contains(out, "plan: cached") || !strings.Contains(out, "rows=") {
		t.Errorf("EXPLAIN ANALYZE EXECUTE must run and report the source:\n%s", out)
	}
	// Plain EXPLAIN SELECT carries no plan-source line: the cache serves
	// only the EXECUTE path.
	out = run(t, sh, "EXPLAIN SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	if strings.Contains(out, "plan:") {
		t.Errorf("EXPLAIN SELECT must not claim a plan source:\n%s", out)
	}
}

// TestPlanCacheMetricsInREPL: the REPL's process-local collector exposes
// the same tpserverd_plan_cache_* families the server does.
func TestPlanCacheMetricsInREPL(t *testing.T) {
	sh := newShell()
	run(t, sh, "PREPARE q AS SELECT * FROM a")
	run(t, sh, "EXECUTE q")
	run(t, sh, "EXECUTE q")
	out := run(t, sh, `\metrics`)
	if !strings.Contains(out, "tpserverd_plan_cache_hits_total 1") ||
		!strings.Contains(out, "tpserverd_plan_cache_misses_total 1") {
		t.Errorf("\\metrics must carry the plan-cache counters:\n%s", out)
	}
}

// TestCatalogMutationForcesReplanViaShell pins the acceptance criterion
// end to end at the dialect level: a catalog mutation between two
// EXECUTEs forces a re-plan (the second EXECUTE misses).
func TestCatalogMutationForcesReplanViaShell(t *testing.T) {
	sh := newShell()
	core := sh.Core
	run(t, sh, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc")
	res, err := core.Eval(context.Background(), "EXECUTE q")
	if err != nil || res.PlanCache != "miss" {
		t.Fatalf("first EXECUTE: plan_cache=%q err=%v, want miss", res.PlanCache, err)
	}
	res, err = core.Eval(context.Background(), "EXECUTE q")
	if err != nil || res.PlanCache != "hit" {
		t.Fatalf("second EXECUTE: plan_cache=%q err=%v, want hit", res.PlanCache, err)
	}
	// CREATE TABLE ... AS over b's name replaces the relation wholesale.
	run(t, sh, "CREATE TABLE b AS SELECT * FROM b WHERE Loc = 'ZAK'")
	res, err = core.Eval(context.Background(), "EXECUTE q")
	if err != nil || res.PlanCache != "miss" {
		t.Fatalf("EXECUTE after catalog mutation: plan_cache=%q err=%v, want miss (re-plan)", res.PlanCache, err)
	}
	if st := core.PlanCache.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}
