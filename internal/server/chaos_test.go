package server_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"tpjoin/internal/client"
	"tpjoin/internal/fault"
	"tpjoin/internal/obs"
	"tpjoin/internal/server"
)

// The chaos tests arm internal/fault failpoints inside the server's
// production code paths and assert the process keeps serving: injected
// accept errors, mid-response connection drops, worker-pool panics and
// session-goroutine panics must each be contained to the statement or
// session they hit — no crashed process, no leaked goroutines, no
// poisoned metrics.

// expectGoroutines records the goroutine count now and, at test end
// (after the server cleanup), polls until the count settles back. The
// helper must be called before startServer so its cleanup runs last.
func expectGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		// Keep-alive admin HTTP connections are pooled goroutines, not
		// leaks; drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before+3 {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutines leaked: %d, want ≤ %d (+3 slack)\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// queryOnFreshConn dials, runs one statement and hangs up, returning the
// query error (or the dial error).
func queryOnFreshConn(t *testing.T, addr, q string) error {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Query(context.Background(), q)
	return err
}

// TestChaosAcceptErrors: transient accept failures (here injected as
// ECONNABORTED, dropping the first three connections) must be retried by
// the accept loop, not end it — connections after the fault quota serve
// normally.
func TestChaosAcceptErrors(t *testing.T) {
	expectGoroutines(t)
	fault.Set("server.accept", fault.Times(3, fault.Errorf("injected accept failure: %w", syscall.ECONNABORTED)))
	t.Cleanup(fault.Reset)
	srv, addr := startServer(t, testCatalog(t), server.Config{})

	dropped, served := 0, 0
	for i := 0; i < 10 && served == 0; i++ {
		if err := queryOnFreshConn(t, addr, joinQueries[0]); err != nil {
			dropped++
			continue
		}
		served++
	}
	if served == 0 {
		t.Fatal("no connection served after the injected accept errors")
	}
	if dropped != 3 {
		t.Errorf("dropped %d connections, want exactly the 3 injected", dropped)
	}
	// The surviving server's accounting is sane: the served statement is
	// counted and no session is stuck open.
	if m := srv.Metrics(); m.QueriesServed == 0 {
		t.Error("served query not counted after chaos")
	}
	waitFor(t, "sessions to close", func() bool { return srv.Metrics().SessionsActive == 0 })
}

// TestChaosWireDrops: a connection dropped between request and response
// (decode-side and encode-side faults) kills only that session; the
// statement's fate differs — a decode drop never evaluates it, an encode
// drop evaluates it but loses the response — and either way the next
// connection serves normally.
func TestChaosWireDrops(t *testing.T) {
	expectGoroutines(t)
	srv, addr := startServer(t, testCatalog(t), server.Config{})
	baseline, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	if _, err := baseline.Query(context.Background(), joinQueries[0]); err != nil {
		t.Fatal(err)
	}
	servedBefore := srv.Metrics().QueriesServed

	fault.Set("server.wire.decode", fault.Times(1, fault.Errorf("injected decode drop")))
	t.Cleanup(fault.Reset)
	if err := queryOnFreshConn(t, addr, joinQueries[0]); err == nil {
		t.Error("decode-dropped statement returned a response")
	}
	if got := srv.Metrics().QueriesServed; got != servedBefore {
		t.Errorf("decode drop evaluated the statement (served %d → %d)", servedBefore, got)
	}

	fault.Set("server.wire.encode", fault.Times(1, fault.Errorf("injected encode drop")))
	if err := queryOnFreshConn(t, addr, joinQueries[0]); err == nil {
		t.Error("encode-dropped statement returned a response")
	}
	waitFor(t, "encode drop to be counted", func() bool {
		return srv.Metrics().QueriesServed == servedBefore+1
	})

	// The surviving sessions keep serving and nothing is stuck.
	if _, err := baseline.Query(context.Background(), joinQueries[0]); err != nil {
		t.Errorf("pre-existing session broken by wire chaos: %v", err)
	}
	if err := queryOnFreshConn(t, addr, joinQueries[0]); err != nil {
		t.Errorf("fresh session broken by wire chaos: %v", err)
	}
	waitFor(t, "sessions to close", func() bool { return srv.Metrics().SessionsActive == 1 })
}

// TestChaosWorkerPanic: a panic inside the parallel worker pool surfaces
// as that query's error (class "panic") on the same session, which —
// like the server — keeps working once the fault is cleared.
func TestChaosWorkerPanic(t *testing.T) {
	expectGoroutines(t)
	srv, addr := startServer(t, testCatalog(t), server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"SET strategy = pnj", "SET join_workers = 3"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	fault.Set("par.worker", fault.Panicf("chaos in worker"))
	t.Cleanup(fault.Reset)
	resp, err := c.Query(ctx, joinQueries[0])
	se, ok := err.(*client.ServerError)
	if !ok {
		t.Fatalf("worker panic surfaced as %T (%v), want ServerError", err, err)
	}
	if se.ErrClass != obs.ErrClassPanic || !strings.Contains(se.Msg, "chaos in worker") {
		t.Errorf("worker panic error = class %q msg %q", se.ErrClass, se.Msg)
	}
	if resp == nil || resp.QueryID == 0 {
		t.Errorf("panicked query carries no query ID: %+v", resp)
	}

	fault.Clear("par.worker")
	if resp, err := c.Query(ctx, joinQueries[0]); err != nil || resp.RowCount == 0 {
		t.Fatalf("session dead after contained worker panic: rows=%v err=%v", resp, err)
	}
	if m := srv.Metrics(); m.AdmissionInflight != 0 {
		t.Errorf("inflight gauge poisoned by panic: %d", m.AdmissionInflight)
	}
}

// TestChaosSessionPanic: a panic on the session goroutine itself (outside
// any statement) drops that session — cleanup still runs, the gauge
// returns to zero — and the process accepts the next connection.
func TestChaosSessionPanic(t *testing.T) {
	expectGoroutines(t)
	srv, addr := startServer(t, testCatalog(t), server.Config{})

	fault.Set("server.session", fault.Times(1, fault.Panicf("chaos in session")))
	t.Cleanup(fault.Reset)
	if err := queryOnFreshConn(t, addr, joinQueries[0]); err == nil {
		t.Error("statement served on a panicked session")
	}
	waitFor(t, "panicked session to be cleaned up", func() bool {
		return srv.Metrics().SessionsActive == 0
	})

	if err := queryOnFreshConn(t, addr, joinQueries[0]); err != nil {
		t.Fatalf("server dead after contained session panic: %v", err)
	}
}

// TestChaosUnderAdmission: worker panics with the admission gate on must
// release their slots — a panicking statement cannot leak capacity.
func TestChaosUnderAdmission(t *testing.T) {
	expectGoroutines(t)
	srv, addr := startServer(t, testCatalog(t), server.Config{
		MaxInflight: 1, QueueDepth: 0, QueueWait: time.Second,
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"SET strategy = pnj", "SET join_workers = 2"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	fault.Set("par.worker", fault.Times(2, fault.Panicf("chaos")))
	t.Cleanup(fault.Reset)
	for i := 0; i < 2; i++ {
		if _, err := c.Query(ctx, joinQueries[0]); err == nil {
			t.Fatal("panic-injected query succeeded")
		}
	}
	// Both slots released despite the panics: the next statement is
	// admitted immediately and succeeds.
	if resp, err := c.Query(ctx, joinQueries[0]); err != nil || resp.RowCount == 0 {
		t.Fatalf("slot leaked by panicked statement: rows=%v err=%v", resp, err)
	}
	if m := srv.Metrics(); m.AdmissionInflight != 0 || m.AdmissionRejected != 0 {
		t.Errorf("admission accounting after panics: inflight %d rejected %d, want 0/0",
			m.AdmissionInflight, m.AdmissionRejected)
	}
}
