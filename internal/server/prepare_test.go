package server_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tpjoin/internal/client"
	"tpjoin/internal/plan"
	"tpjoin/internal/server"
)

// TestPrepareExecuteOverTheWire drives the PREPARE/EXECUTE/DEALLOCATE
// lifecycle through the NDJSON protocol: the plan-cache outcome travels
// in Response.PlanCache, repeated EXECUTEs hit, and the result rows stay
// identical to the inline SELECT on the same session.
func TestPrepareExecuteOverTheWire(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	resp, err := c.Query(ctx, "PREPARE q AS SELECT * FROM a TP JOIN b ON a.Loc = b.Loc WHERE a.Loc = $1")
	if err != nil || !strings.Contains(resp.Message, "prepared q (1 parameter(s))") {
		t.Fatalf("PREPARE: %v / %q", err, resp.Message)
	}
	if resp.PlanCache != "" {
		t.Errorf("PREPARE itself plans nothing, PlanCache = %q", resp.PlanCache)
	}

	ref, err := c.Query(ctx, "SELECT * FROM a TP JOIN b ON a.Loc = b.Loc WHERE a.Loc = 'ZAK'")
	if err != nil {
		t.Fatal(err)
	}
	if ref.PlanCache != "" {
		t.Errorf("plain SELECT must not touch the plan cache, PlanCache = %q", ref.PlanCache)
	}

	first, err := c.Query(ctx, "EXECUTE q ('ZAK')")
	if err != nil {
		t.Fatal(err)
	}
	if first.PlanCache != "miss" {
		t.Errorf("first EXECUTE: PlanCache = %q, want miss", first.PlanCache)
	}
	second, err := c.Query(ctx, "EXECUTE q ('ZAK')")
	if err != nil {
		t.Fatal(err)
	}
	if second.PlanCache != "hit" {
		t.Errorf("second EXECUTE: PlanCache = %q, want hit", second.PlanCache)
	}
	for name, got := range map[string]*server.Response{"cold": first, "hot": second} {
		if got.RowCount != ref.RowCount || len(got.Rows) != len(ref.Rows) {
			t.Fatalf("%s EXECUTE: %d rows, inline SELECT %d", name, got.RowCount, ref.RowCount)
		}
		for i := range ref.Rows {
			if fmt.Sprintf("%+v", ref.Rows[i]) != fmt.Sprintf("%+v", got.Rows[i]) {
				t.Errorf("%s EXECUTE row %d: %+v, want %+v", name, i, got.Rows[i], ref.Rows[i])
			}
		}
	}

	if resp, err = c.Query(ctx, "DEALLOCATE q"); err != nil {
		t.Fatalf("DEALLOCATE: %v (%q)", err, resp.Message)
	}
	if _, err = c.Query(ctx, "EXECUTE q ('ZAK')"); err == nil ||
		!strings.Contains(err.Error(), "no prepared statement") {
		t.Errorf("EXECUTE after DEALLOCATE: %v, want no-prepared-statement error", err)
	}
}

// TestPlanMemoPerSession: prepared-statement names are session-local,
// and so is the planning memo behind them — two sessions preparing the
// same text each plan fresh once and then hit their own memo, while the
// hit and miss counters are shared by the whole server.
func TestPlanMemoPerSession(t *testing.T) {
	cat := testCatalog(t)
	srv, addr := startServer(t, cat, server.Config{})
	ctx := context.Background()

	const prep = "PREPARE mine AS SELECT * FROM w_r TP JOIN w_s ON w_r.Key = w_s.Key"
	for i := 1; i <= 2; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The name is session-local: session 2 cannot EXECUTE session 1's.
		if _, err := c.Query(ctx, "EXECUTE mine"); err == nil {
			t.Errorf("session %d: prepared names must be session-local", i)
		}
		if _, err := c.Query(ctx, prep); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"miss", "hit"} {
			if resp, err := c.Query(ctx, "EXECUTE mine"); err != nil || resp.PlanCache != want {
				t.Fatalf("session %d EXECUTE: %v / %q, want %s", i, err, resp.PlanCache, want)
			}
		}
	}
	if st := srv.Metrics().PlanCache; st != (plan.CacheStats{Hits: 2, Misses: 2}) {
		t.Errorf("server plan counters = %+v, want 2 hits / 2 misses", st)
	}
}

// TestPlanCacheMetricsExposition: the plan counters reach the \metrics
// builtin (and therefore GET /metrics, which renders the same snapshot),
// and they are the only tpserverd_plan_cache_* families.
func TestPlanCacheMetricsExposition(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"PREPARE q AS SELECT * FROM a", "EXECUTE q", "EXECUTE q"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	resp, err := c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tpserverd_plan_cache_hits_total 1",
		"tpserverd_plan_cache_misses_total 1",
	} {
		if !strings.Contains(resp.Message, want) {
			t.Errorf("\\metrics lacks %q:\n%s", want, resp.Message)
		}
	}
	var families []string
	for _, line := range strings.Split(resp.Message, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE tpserverd_plan_cache_"); ok {
			families = append(families, name)
		}
	}
	if want := []string{"hits_total counter", "misses_total counter"}; !slices.Equal(families, want) {
		t.Errorf("plan-cache families = %q, want only %q", families, want)
	}
}
