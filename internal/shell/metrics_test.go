package shell

import (
	"context"
	"strings"
	"testing"

	"tpjoin/internal/catalog"
	"tpjoin/internal/obs"
)

// TestMetricsBuiltin covers the REPL surface of \metrics: the shell owns
// a process-local collector fed by the same accounting rules as the
// server, rendered through the identical obs path.
func TestMetricsBuiltin(t *testing.T) {
	sh := newShell()
	run(t, sh, "SET strategy = ta")
	run(t, sh, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	run(t, sh, "EXPLAIN ANALYZE SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	out := run(t, sh, `\metrics`)
	if err := obs.ValidateExposition(out); err != nil {
		t.Fatalf("\\metrics exposition not well-formed: %v\n%s", err, out)
	}
	for _, want := range []string{
		// SET + SELECT + EXPLAIN ANALYZE evaluated before this scrape (the
		// \metrics line itself is counted only after it rendered).
		"tpserverd_queries_served_total 3",
		`tpserverd_strategy_queries_total{strategy="TA"} 1`,
		`tpserverd_query_seconds_bucket{strategy="TA",le="+Inf"} 1`,
		"tpserverd_rows_returned_total 7", // Fig. 1b's seven rows
		`tpserverd_analyze_nodes_total{op="TPJoin"} 1`,
		"tpserverd_uptime_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("\\metrics missing %q:\n%s", want, out)
		}
	}
	// Failed statements count as served and as errors.
	run(t, sh, "SELECT * FROM nope TP LEFT JOIN b ON nope.Loc = b.Loc")
	out = run(t, sh, `\metrics`)
	if !strings.Contains(out, "tpserverd_query_errors_total 1") {
		t.Errorf("failed statement not counted:\n%s", out)
	}
}

// TestMetricsUnavailableWithoutCollector pins the bare-Core behavior: a
// surface that did not attach a collector (e.g. a server session, where
// the server intercepts \metrics itself) reports a usage error instead
// of panicking.
func TestMetricsUnavailableWithoutCollector(t *testing.T) {
	core := NewCore(catalog.New())
	_, err := core.Eval(context.Background(), `\metrics`)
	if err == nil || !IsUsageError(err) {
		t.Fatalf("bare core \\metrics: err = %v, want usage error", err)
	}
}
