package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/client"
	"tpjoin/internal/dataset"
	"tpjoin/internal/obs"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
)

// testCatalog builds the shared catalog: the paper's Fig. 1a relations
// plus synthetic Webkit and Meteo workloads.
func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	shell.PreloadFig1a(cat)
	wr, ws := dataset.Webkit(300, 1)
	wr.Name, ws.Name = "w_r", "w_s"
	mr, ms := dataset.Meteo(300, 1)
	mr.Name, ms.Name = "m_r", "m_s"
	if err := cat.Register(wr); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(ws); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(mr); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(ms); err != nil {
		t.Fatal(err)
	}
	return cat
}

// startServer serves cat on a loopback listener and returns the dial
// address. The server is shut down with the test.
func startServer(t testing.TB, cat *catalog.Catalog, cfg server.Config) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cat, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// The paper's joins with negation (LEFT / FULL / ANTI) over Fig. 1a and
// both synthetic workloads.
var joinQueries = []string{
	"SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc",
	"SELECT * FROM a TP FULL JOIN b ON a.Loc = b.Loc",
	"SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc",
	"SELECT * FROM w_r TP LEFT JOIN w_s ON w_r.Key = w_s.Key",
	"SELECT * FROM w_r TP ANTI JOIN w_s ON w_r.Key = w_s.Key",
	"SELECT * FROM m_r TP FULL JOIN m_s ON m_r.Key = m_s.Key",
	"SELECT * FROM m_r TP ANTI JOIN m_s ON m_r.Key = m_s.Key",
}

var strategies = []string{"nj", "ta", "pnj", "pta"}

// referenceOutputs renders every (strategy, query) pair through an
// in-process shell over the same catalog.
func referenceOutputs(t testing.TB, cat *catalog.Catalog) map[string]string {
	t.Helper()
	want := make(map[string]string)
	for _, strat := range strategies {
		var buf bytes.Buffer
		sh := &shell.Shell{Core: shell.NewCore(cat), Out: &buf}
		if quit := sh.Execute("SET strategy = " + strat); quit {
			t.Fatal("unexpected quit")
		}
		if got := buf.String(); got != "ok\n" {
			t.Fatalf("SET failed: %q", got)
		}
		for _, q := range joinQueries {
			buf.Reset()
			sh.Execute(q)
			out := buf.String()
			if strings.Contains(out, "error") {
				t.Fatalf("reference %s %q: %s", strat, q, out)
			}
			want[strat+"|"+q] = out
		}
	}
	return want
}

// TestConcurrentSessionsByteIdentical is the end-to-end acceptance test:
// ≥8 concurrent sessions on a loopback listener, each running TP
// LEFT/FULL/ANTI joins under both the NJ and TA strategies against the
// Fig. 1a relations and the Webkit/Meteo workloads, asserting the remote
// rendering is byte-identical to in-process shell execution.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	cat := testCatalog(t)
	want := referenceOutputs(t, cat)
	srv, addr := startServer(t, cat, server.Config{DefaultTimeout: time.Minute})

	const sessions = 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ctx := context.Background()
			// Half the sessions exercise ta first, half nj first, so both
			// strategies run concurrently at every moment.
			order := append([]string(nil), strategies...)
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, strat := range order {
				resp, err := c.Query(ctx, "SET strategy = "+strat)
				if err != nil {
					errs <- fmt.Errorf("session %d: SET %s: %w", i, strat, err)
					return
				}
				if resp.Kind != server.KindMessage || resp.Message != "ok\n" {
					errs <- fmt.Errorf("session %d: SET %s: %+v", i, strat, resp)
					return
				}
				for _, q := range joinQueries {
					resp, err := c.Query(ctx, q)
					if err != nil {
						errs <- fmt.Errorf("session %d: %s %q: %w", i, strat, q, err)
						return
					}
					var buf bytes.Buffer
					client.Render(&buf, resp)
					if got := buf.String(); got != want[strat+"|"+q] {
						errs <- fmt.Errorf("session %d: %s %q:\nserver:\n%s\nlocal:\n%s",
							i, strat, q, got, want[strat+"|"+q])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := srv.Metrics()
	if m.SessionsOpened < sessions {
		t.Errorf("sessions opened = %d, want ≥ %d", m.SessionsOpened, sessions)
	}
	wantQueries := int64(sessions * len(strategies) * (len(joinQueries) + 1))
	if m.QueriesServed < wantQueries {
		t.Errorf("queries served = %d, want ≥ %d", m.QueriesServed, wantQueries)
	}
	if m.RowsReturned == 0 {
		t.Error("rows returned = 0")
	}
	if m.QueryErrors != 0 {
		t.Errorf("query errors = %d, want 0", m.QueryErrors)
	}
}

// TestSessionIsolationAndSharedDDL: per-session SET isolation, shared
// CREATE TABLE AS / \drop visibility across sessions, and EXPLAIN
// passthrough showing the session strategy.
func TestSessionIsolationAndSharedDDL(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx := context.Background()

	// SET on c1 must not leak into c2's plans.
	if _, err := c1.Query(ctx, "SET strategy = ta"); err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Query(ctx, "EXPLAIN SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r1.Message, "strategy=TA") {
		t.Errorf("c1 explain lost its session setting:\n%s", r1.Message)
	}
	r2, err := c2.Query(ctx, "EXPLAIN SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Message, "strategy=NJ") {
		t.Errorf("c2 must keep the default NJ strategy:\n%s", r2.Message)
	}

	// DDL on c2 is visible to c1 (shared catalog). c2 plans under NJ, so
	// the materialized result is the paper's 7-row Fig. 1b relation.
	if _, err := c2.Query(ctx, "CREATE TABLE shared_q AS SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Query(ctx, "SELECT * FROM shared_q")
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != 7 {
		t.Errorf("shared_q rows = %d, want 7", resp.RowCount)
	}
	if _, err := c2.Query(ctx, `\drop shared_q`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Query(ctx, "SELECT * FROM shared_q"); err == nil {
		t.Error("dropped relation must be gone for every session")
	} else if _, ok := err.(*client.ServerError); !ok {
		t.Errorf("want ServerError, got %T: %v", err, err)
	}
	// The session survives a query error.
	if _, err := c1.Query(ctx, "SELECT * FROM a"); err != nil {
		t.Errorf("session must survive a failed query: %v", err)
	}

	// Usage lines keep their REPL-verbatim marking across the wire.
	_, err = c1.Query(ctx, `\load toofew`)
	var se *client.ServerError
	if !errors.As(err, &se) || !se.Usage || !strings.HasPrefix(se.Msg, "usage:") {
		t.Errorf("usage error lost its marking: %v", err)
	}
}

// TestConcurrentDDLChurn hammers the shared catalog with CREATE TABLE AS,
// SELECT and \drop from many sessions (run under -race).
func TestConcurrentDDLChurn(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ctx := context.Background()
			private := fmt.Sprintf("t%d", i)
			for round := 0; round < 10; round++ {
				if _, err := c.Query(ctx, fmt.Sprintf(
					"CREATE TABLE %s AS SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc", private)); err != nil {
					t.Errorf("session %d: create: %v", i, err)
					return
				}
				// Everyone also churns one hot shared name.
				if _, err := c.Query(ctx,
					"CREATE TABLE hot AS SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil {
					t.Errorf("session %d: create hot: %v", i, err)
					return
				}
				if resp, err := c.Query(ctx, "SELECT * FROM "+private); err != nil {
					t.Errorf("session %d: select: %v", i, err)
					return
				} else if resp.RowCount == 0 {
					t.Errorf("session %d: empty anti join", i)
					return
				}
				if _, err := c.Query(ctx, `\drop `+private); err != nil {
					t.Errorf("session %d: drop: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPanicContainment: an engine panic triggered by one client (joining
// a stale CREATE TABLE snapshot against a regenerated workload whose
// base events carry conflicting probabilities) must become that query's
// error, not kill the server.
func TestPanicContainment(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{
		`\gen webkit 50`,
		"CREATE TABLE k AS SELECT * FROM r",
		`\gen meteo 50`,
	} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	_, err = c.Query(ctx, "SELECT * FROM k TP LEFT JOIN r ON k.Key = r.Key")
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "panic") {
		t.Fatalf("want contained panic error, got %v", err)
	}
	// The session — and the server — survive.
	if resp, err := c.Query(ctx, "SELECT * FROM a"); err != nil || resp.RowCount != 2 {
		t.Fatalf("session dead after contained panic: %v", err)
	}
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("server dead after contained panic: %v", err)
	}
	c2.Close()
}

// TestLoadbCraftedFile: \loadb of a 10-byte .tpr whose attribute count
// promises 2^33 entries is a classified error for that statement, and the
// session and the server keep serving. A decoder that presized from the
// count would take the whole process down with a fatal out-of-memory.
func TestLoadbCraftedFile(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	path := filepath.Join(t.TempDir(), "evil.tpr")
	data := binary.AppendUvarint([]byte("TPR1\x00"), 1<<33)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.Query(ctx, `\loadb evil `+path)
	var se *client.ServerError
	if !errors.As(err, &se) || se.ErrClass != obs.ErrClassError {
		t.Fatalf("want a classified %q error, got %v (%+v)", obs.ErrClassError, err, se)
	}
	if resp, err := c.Query(ctx, "SELECT * FROM a"); err != nil || resp.RowCount != 2 {
		t.Fatalf("session dead after the failed \\loadb: %v", err)
	}
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("server dead after the failed \\loadb: %v", err)
	}
	c2.Close()
}

// TestQueryTimeout: with a vanishingly small default timeout every SELECT
// is cancelled by its context deadline, deterministically.
func TestQueryTimeout(t *testing.T) {
	cat := testCatalog(t)
	srv, addr := startServer(t, cat, server.Config{DefaultTimeout: time.Nanosecond})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.Query(ctx, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "context deadline exceeded") {
		t.Fatalf("want deadline-exceeded ServerError, got %v", err)
	}
	if m := srv.Metrics(); m.QueryTimeouts == 0 {
		t.Errorf("timeout counter not incremented: %+v", m)
	}
	// SET does not execute a query plan and still succeeds.
	if _, err := c.Query(ctx, "SET strategy = ta"); err != nil {
		t.Errorf("SET must not be subject to execution timeout: %v", err)
	}
}

// TestMetricsBuiltin checks the \metrics exposition.
func TestMetricsBuiltin(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Query(ctx, "SELECT * FROM a"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tpserverd_sessions_active 1",
		"tpserverd_queries_served_total 1",
		"tpserverd_rows_returned_total 2",
		"tpserverd_last_query_rows 2",
		"tpserverd_last_query_seconds ",
		`tpserverd_strategy_queries_total{strategy="NJ"} 1`,
		`tpserverd_strategy_rows_total{strategy="NJ"} 2`,
	} {
		if !strings.Contains(resp.Message, want) {
			t.Errorf("\\metrics missing %q:\n%s", want, resp.Message)
		}
	}

	// Queries run after SET strategy = pnj are attributed to PNJ.
	if _, err := c.Query(ctx, "SET strategy = pnj"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tpserverd_strategy_queries_total{strategy="PNJ"} 1`,
		`tpserverd_strategy_rows_total{strategy="PNJ"} 7`,
		`tpserverd_strategy_exec_seconds_total{strategy="PNJ"} `,
		"tpserverd_last_query_rows 7",
	} {
		if !strings.Contains(resp.Message, want) {
			t.Errorf("\\metrics missing %q:\n%s", want, resp.Message)
		}
	}
}

// TestQuitClosesSession: \q gets a quit response and the server hangs up.
func TestQuitClosesSession(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(context.Background(), `\q`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != server.KindQuit {
		t.Fatalf("kind = %s, want quit", resp.Kind)
	}
	if _, err := c.Query(context.Background(), "SELECT * FROM a"); err == nil {
		t.Error("query after \\q must fail: connection is closed")
	}
}

// TestAutoStrategyMetrics: the default (SET strategy = auto) session's
// cost-based picks are counted per physical strategy in
// tpserverd_auto_strategy_total, while forced SET strategies are not.
func TestAutoStrategyMetrics(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Join-free queries make no pick.
	if _, err := c.Query(ctx, "SELECT * FROM a"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Message, `tpserverd_auto_strategy_total{strategy="NJ"} 0`) {
		t.Errorf("join-free query must not count a pick:\n%s", resp.Message)
	}

	// A Fig. 1a join under the default session: the picker chooses NJ
	// (tiny, selective input) and the pick is counted; EXPLAIN plans a
	// join too, so it also counts.
	if _, err := c.Query(ctx, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Query(ctx, "EXPLAIN SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "strategy=NJ (auto)") || !strings.Contains(r.Message, "cost: NJ=") {
		t.Errorf("auto EXPLAIN must show the pick and the cost estimates:\n%s", r.Message)
	}
	resp, err = c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Message, `tpserverd_auto_strategy_total{strategy="NJ"} 2`) {
		t.Errorf("auto picks not counted:\n%s", resp.Message)
	}

	// Forced strategies bypass the picker and the counter.
	if _, err := c.Query(ctx, "SET strategy = ta"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Message, `tpserverd_auto_strategy_total{strategy="TA"} 0`) {
		t.Errorf("forced TA must not count as an auto pick:\n%s", resp.Message)
	}
	if !strings.Contains(resp.Message, `tpserverd_strategy_queries_total{strategy="TA"} 1`) {
		t.Errorf("forced TA query not attributed:\n%s", resp.Message)
	}
	// The NJ pick count must not have moved: SET statements, backslash
	// commands and forced queries plan no auto join, and a statement that
	// never reaches the planner must not leak the previous statement's
	// pick into the counter.
	if !strings.Contains(resp.Message, `tpserverd_auto_strategy_total{strategy="NJ"} 2`) {
		t.Errorf("stale planned-join state leaked into the auto counter:\n%s", resp.Message)
	}
}

// TestStatsBuiltinOverWire: \stats goes through the shared Core, so the
// remote surface renders it byte-identically to the REPL.
func TestStatsBuiltinOverWire(t *testing.T) {
	cat := testCatalog(t)
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(context.Background(), `\stats w_r`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"w_r: 150 tuples", "Key:", "group mean", "time: span"} {
		if !strings.Contains(resp.Message, want) {
			t.Errorf("\\stats over the wire missing %q:\n%s", want, resp.Message)
		}
	}
}
