package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tpjoin/internal/client"
	"tpjoin/internal/obs"
	"tpjoin/internal/server"
)

// startServerWithAdmin serves both the query protocol and the admin HTTP
// endpoint on loopback listeners and returns the dial address and the
// admin base URL. One cleanup closes the server and checks both serve
// goroutines exited cleanly.
func startServerWithAdmin(t testing.TB, cfg server.Config) (*server.Server, string, string) {
	t.Helper()
	qln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(testCatalog(t), cfg)
	done := make(chan error, 2)
	go func() { done <- srv.Serve(qln) }()
	go func() { done <- srv.ServeAdmin(aln) }()
	t.Cleanup(func() {
		srv.Close()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Errorf("serve goroutine: %v", err)
			}
		}
	})
	return srv, qln.Addr().String(), "http://" + aln.Addr().String()
}

// adminGet fetches one admin URL and returns status and body.
func adminGet(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// waitReady polls /readyz until the query listener registers (the serve
// goroutine races the first request).
func waitReady(t testing.TB, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := adminGet(t, base+"/readyz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 200")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdminEndpoints(t *testing.T) {
	_, addr, base := startServerWithAdmin(t, server.Config{})
	waitReady(t, base)

	if code, body := adminGet(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := adminGet(t, base+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("readyz: %d %q", code, body)
	}

	// Run a query so the scrape carries a populated per-strategy latency
	// histogram.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Query(ctx, joinQueries[0]); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics content-type = %q", ct)
	}
	text := string(body)
	if err := obs.ValidateExposition(text); err != nil {
		t.Errorf("/metrics exposition not well-formed: %v", err)
	}
	for _, want := range []string{
		`tpserverd_query_seconds_bucket{strategy="NJ",le="+Inf"} 1`,
		`tpserverd_strategy_queries_total{strategy="NJ"} 1`,
		"tpserverd_queries_served_total 1",
		"tpserverd_sessions_active 1",
		"tpserverd_uptime_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof is mounted on the admin mux.
	if code, body := adminGet(t, base+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK ||
		!strings.Contains(body, "goroutine profile:") {
		t.Errorf("pprof goroutine: %d %.80q", code, body)
	}
}

func TestReadyzBeforeQueryListener(t *testing.T) {
	// Admin endpoint up, query listener never started: ready must be 503
	// while healthz (liveness) stays 200.
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(testCatalog(t), server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.ServeAdmin(aln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("ServeAdmin: %v", err)
		}
	})
	base := "http://" + aln.Addr().String()
	if code, _ := adminGet(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz before query listener: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := adminGet(t, base+"/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "not accepting") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz = %d %q, want 503 not-accepting", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsNoDrift is the single-render-path regression: the \metrics
// builtin and GET /metrics must render the identical exposition, modulo
// the runtime gauge families that change between any two scrapes.
func TestMetricsNoDrift(t *testing.T) {
	_, addr, base := startServerWithAdmin(t, server.Config{})
	waitReady(t, base)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"SET strategy = ta", joinQueries[0], joinQueries[3]} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// \metrics is a server builtin: it bumps no counters and takes no
	// query ID, so the two scrapes see identical counter state.
	resp, err := c.Query(ctx, `\metrics`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != 0 {
		t.Errorf("\\metrics carries query ID %d, want 0 (server builtin)", resp.QueryID)
	}
	code, httpText := adminGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}

	got, want := stripVolatile(httpText), stripVolatile(resp.Message)
	if got != want {
		t.Errorf("\\metrics and GET /metrics drifted:\n--- builtin ---\n%s\n--- http ---\n%s", want, got)
	}
	if !strings.Contains(got, `tpserverd_strategy_queries_total{strategy="TA"} 2`) {
		t.Errorf("stripped exposition lost real counters:\n%s", got)
	}
}

// stripVolatile drops the families whose values legitimately differ
// between two scrapes (uptime and Go runtime gauges); everything else
// must match byte for byte.
func stripVolatile(text string) string {
	volatile := []string{
		"tpserverd_uptime_seconds",
		"tpserverd_go_goroutines",
		"tpserverd_go_heap_inuse_bytes",
		"tpserverd_go_gc_pause_seconds_total",
	}
	var keep []string
line:
	for _, l := range strings.Split(text, "\n") {
		for _, v := range volatile {
			if strings.Contains(l, v) {
				continue line
			}
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

// syncBuffer lets the test read the query log the server session
// goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryWarnMatchesQueryID is the acceptance criterion: a query
// slower than the slow-query threshold emits exactly one WARN audit
// record, and its query_id equals the Response.QueryID the client
// received.
func TestSlowQueryWarnMatchesQueryID(t *testing.T) {
	var logBuf syncBuffer
	cfg := server.Config{
		QueryLog: obs.NewQueryLog(slog.NewJSONHandler(&logBuf, nil), time.Nanosecond),
	}
	_, addr := startServer(t, testCatalog(t), cfg)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(context.Background(), joinQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID == 0 {
		t.Fatal("response carries no query ID")
	}

	// The audit record is written before the response is encoded, so it
	// is complete by the time the client has the response.
	var warns []map[string]any
	dec := json.NewDecoder(strings.NewReader(logBuf.String()))
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("unparseable query-log line: %v\n%s", err, logBuf.String())
		}
		if rec["level"] == "WARN" {
			warns = append(warns, rec)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("got %d WARN records, want exactly 1:\n%s", len(warns), logBuf.String())
	}
	w := warns[0]
	if got := w["query_id"]; got != float64(resp.QueryID) {
		t.Errorf("WARN query_id = %v, client saw %d", got, resp.QueryID)
	}
	if w["slow"] != true {
		t.Errorf("WARN record not flagged slow: %v", w)
	}
	if stmt, _ := w["stmt"].(string); stmt != joinQueries[0] {
		t.Errorf("WARN stmt = %q", stmt)
	}
	if sess, _ := w["session"].(string); !strings.HasPrefix(sess, "127.0.0.1:") {
		t.Errorf("WARN session = %q, want the remote address", sess)
	}
}

// TestQueryIDEndToEnd pins the identity plumbing: IDs are monotonic per
// process across sessions, the EXPLAIN ANALYZE trailer carries the same
// ID as the response (text and structured tree agree), and failed
// statements still get IDs.
func TestQueryIDEndToEnd(t *testing.T) {
	_, addr := startServer(t, testCatalog(t), server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	var last uint64
	for i := 0; i < 3; i++ {
		resp, err := c.Query(ctx, joinQueries[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.QueryID <= last {
			t.Fatalf("query ID %d after %d: not monotonic", resp.QueryID, last)
		}
		last = resp.QueryID
	}

	// A second session keeps drawing from the same per-process counter.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Query(ctx, "EXPLAIN ANALYZE "+joinQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID <= last {
		t.Errorf("cross-session query ID %d after %d: not monotonic", resp.QueryID, last)
	}
	tag := fmt.Sprintf("query_id=%d", resp.QueryID)
	for _, want := range []string{tag, "stage memo-hits: ", "stage shannon-steps: 0"} {
		if !strings.Contains(resp.Message, want) {
			t.Errorf("ANALYZE text missing %q:\n%s", want, resp.Message)
		}
	}
	if resp.Plan == nil || resp.Plan.QueryID != resp.QueryID {
		t.Errorf("structured tree QueryID = %v, response = %d", resp.Plan, resp.QueryID)
	}

	// Failed statements are evaluated statements: they carry IDs too.
	failResp, err := c2.Query(ctx, "SELECT * FROM no_such_relation TP JOIN b ON no_such_relation.Loc = b.Loc")
	if err == nil {
		t.Fatal("query against a missing relation succeeded")
	}
	if _, ok := err.(*client.ServerError); !ok {
		t.Fatalf("want ServerError, got %T: %v", err, err)
	}
	if failResp == nil || failResp.QueryID <= resp.QueryID {
		t.Errorf("failed statement query ID = %+v, want > %d", failResp, resp.QueryID)
	}
}
