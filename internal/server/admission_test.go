package server_test

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/client"
	"tpjoin/internal/dataset"
	"tpjoin/internal/fault"
	"tpjoin/internal/server"
	"tpjoin/internal/tp"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverloadSheddingE2E is the admission-control acceptance test: a
// server with 2 query slots and a 2-seat wait queue, hit with 8
// concurrent slow statements, must end up with exactly 2 running, 2
// queued and 4 rejected with ErrClass "overloaded" — and the metrics,
// /metrics exposition and /readyz must all agree with that accounting.
func TestOverloadSheddingE2E(t *testing.T) {
	expectGoroutines(t)
	srv, addr, base := startServerWithAdmin(t, server.Config{
		MaxInflight: 2,
		QueueDepth:  2,
		QueueWait:   time.Minute, // queued statements must outlive the assertions
	})
	waitReady(t, base)

	// The "server.handle" failpoint sits between the admission grant and
	// execution: blocking there holds the two slots deterministically
	// while the rest of the burst piles up behind the gate.
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	fault.Set("server.handle", func() error {
		entered <- struct{}{}
		<-release
		return nil
	})
	t.Cleanup(fault.Reset)
	// Unblock held statements before the server cleanup waits for the
	// session goroutines, even when an assertion above fails the test.
	t.Cleanup(releaseAll)

	const burst = 8
	type outcome struct {
		resp *server.Response
		err  error
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				results <- outcome{nil, err}
				return
			}
			defer c.Close()
			resp, err := c.Query(context.Background(), joinQueries[0])
			results <- outcome{resp, err}
		}()
	}

	// Steady state under the blocked slots: 2 statements hold slots, 2
	// wait in the queue, and the other 4 are shed immediately.
	waitFor(t, "2 slot holders", func() bool { return len(entered) == 2 })
	waitFor(t, "4 rejections", func() bool { return srv.Metrics().AdmissionRejected == 4 })
	if m := srv.Metrics(); m.AdmissionAdmitted != 2 || m.AdmissionQueued != 0 || m.AdmissionInflight != 2 {
		t.Errorf("saturated snapshot = admitted %d queued %d inflight %d, want 2/0/2",
			m.AdmissionAdmitted, m.AdmissionQueued, m.AdmissionInflight)
	}
	// Every slot busy and every queue seat taken: readiness degrades so a
	// load balancer stops routing here.
	if code, body := adminGet(t, base+"/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "saturated") {
		t.Errorf("saturated readyz = %d %q, want 503 saturated", code, body)
	}

	releaseAll()
	wg.Wait()
	close(results)

	var served, shed int
	for r := range results {
		switch {
		case r.err == nil:
			served++
			if r.resp == nil || r.resp.RowCount == 0 {
				t.Errorf("served statement returned no rows: %+v", r.resp)
			}
		case client.IsOverloaded(r.err):
			shed++
			if !strings.Contains(r.err.Error(), "overloaded") {
				t.Errorf("rejection message %q does not say overloaded", r.err)
			}
			if r.resp == nil || r.resp.QueryID == 0 {
				t.Errorf("rejected statement carries no query ID: %+v", r.resp)
			}
			if r.resp.ErrClass != "overloaded" {
				t.Errorf("rejected ErrClass = %q", r.resp.ErrClass)
			}
		default:
			t.Errorf("unexpected failure: %v", r.err)
		}
	}
	if served != 4 || shed != 4 {
		t.Fatalf("served %d shed %d, want 4 served (2 immediate + 2 queued) and 4 shed", served, shed)
	}

	// Final accounting: the 2 queued statements were admitted when the
	// slot holders finished, nothing holds a slot anymore, and the
	// Prometheus exposition renders the same numbers.
	waitFor(t, "inflight to drain", func() bool { return srv.Metrics().AdmissionInflight == 0 })
	if m := srv.Metrics(); m.AdmissionAdmitted != 4 || m.AdmissionQueued != 2 || m.AdmissionRejected != 4 {
		t.Errorf("final snapshot = admitted %d queued %d rejected %d, want 4/2/4",
			m.AdmissionAdmitted, m.AdmissionQueued, m.AdmissionRejected)
	}
	_, text := adminGet(t, base+"/metrics")
	for _, line := range []string{
		"tpserverd_admission_admitted_total 4",
		"tpserverd_admission_queued_total 2",
		"tpserverd_admission_rejected_total 4",
		"tpserverd_admission_inflight 0",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	if code, _ := adminGet(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz after drain = %d, want 200", code)
	}
}

// TestAdmissionQueueWaitExpiry: a statement that waits longer than
// QueueWait for a slot is rejected as overloaded, not left hanging.
func TestAdmissionQueueWaitExpiry(t *testing.T) {
	_, addr := startServer(t, testCatalog(t), server.Config{
		MaxInflight: 1,
		QueueDepth:  1,
		QueueWait:   30 * time.Millisecond,
	})

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	var holdOnce sync.Once
	releaseHold := func() { holdOnce.Do(func() { close(hold) }) }
	fault.Set("server.handle", func() error {
		select {
		case entered <- struct{}{}:
			<-hold // only the slot holder blocks
		default:
		}
		return nil
	})
	t.Cleanup(fault.Reset)
	t.Cleanup(releaseHold)

	holder, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	done := make(chan error, 1)
	go func() {
		_, err := holder.Query(context.Background(), joinQueries[0])
		done <- err
	}()
	waitFor(t, "slot holder", func() bool { return len(entered) == 1 })

	waiter, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	if _, err := waiter.Query(context.Background(), joinQueries[0]); !client.IsOverloaded(err) {
		t.Fatalf("queued statement past QueueWait: err = %v, want overloaded", err)
	} else if !strings.Contains(err.Error(), "queue wait") {
		t.Errorf("expiry message %q does not mention the queue wait", err)
	}

	releaseHold()
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
}

// TestMemoryBudgetE2E: a session-set memory budget aborts an
// over-budget query with ErrClass "budget" while the session — and the
// server — keep serving; SET memory_budget = off lifts it again.
func TestMemoryBudgetE2E(t *testing.T) {
	expectGoroutines(t)
	_, addr := startServer(t, testCatalog(t), server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// NJ charges its batch-pipeline working set up front, so a 16 KiB
	// budget rejects the join before it produces a row.
	for _, q := range []string{"SET strategy = nj", "SET memory_budget = 16kb"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	resp, err := c.Query(ctx, joinQueries[5])
	if err == nil {
		t.Fatal("16kb-budget join succeeded")
	}
	se, ok := err.(*client.ServerError)
	if !ok {
		t.Fatalf("want ServerError, got %T: %v", err, err)
	}
	if se.ErrClass != "budget" || resp.ErrClass != "budget" {
		t.Errorf("ErrClass = %q / %q, want budget", se.ErrClass, resp.ErrClass)
	}
	if !strings.Contains(se.Msg, "memory budget exceeded") {
		t.Errorf("budget error %q does not name the budget", se.Msg)
	}

	// The abort is per query: the same session lifts the budget and runs
	// the identical statement to completion.
	if _, err := c.Query(ctx, "SET memory_budget = off"); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Query(ctx, joinQueries[5]); err != nil || resp.RowCount == 0 {
		t.Fatalf("after SET memory_budget = off: rows=%v err=%v", resp, err)
	}
}

// TestMemoryBudgetServerDefault: the -memory-budget server default
// applies to sessions that never issue SET memory_budget, and a session
// override defeats it.
func TestMemoryBudgetServerDefault(t *testing.T) {
	_, addr := startServer(t, testCatalog(t), server.Config{MemoryBudget: 16 << 10})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Query(ctx, "SET strategy = nj"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(ctx, joinQueries[5])
	se, ok := err.(*client.ServerError)
	if !ok || se.ErrClass != "budget" {
		t.Fatalf("default-budget join: err = %v, want budget class", err)
	}
	if _, err := c.Query(ctx, "SET memory_budget = 1gb"); err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Query(ctx, joinQueries[5]); err != nil || resp.RowCount == 0 {
		t.Fatalf("override did not defeat the server default: rows=%v err=%v", resp, err)
	}
}

// TestMemoryBudgetOrderByLimit: the rows a statement buffers count
// against its budget wherever they are buffered — under a Sort fed by a
// streaming NJ join, inside a set operation, inside DISTINCT — so putting
// ORDER BY … LIMIT 1 (or LIMIT 1) on top of an over-budget statement
// still ends in ErrClass "budget" instead of one row.
func TestMemoryBudgetOrderByLimit(t *testing.T) {
	expectGoroutines(t)
	cat := catalog.New()
	r, s := dataset.Webkit(12000, 1)
	for _, rel := range []*tp.Relation{r, s} {
		if err := cat.Register(rel); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, cat, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"SET strategy = nj", "SET memory_budget = 256kb"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, q := range []string{
		"SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key",
		"SELECT * FROM r TP LEFT JOIN s ON r.Key = s.Key ORDER BY P DESC LIMIT 1",
		"SELECT * FROM r TP UNION s ORDER BY P DESC LIMIT 1",
		"SELECT * FROM r TP INTERSECT s ORDER BY P DESC LIMIT 1",
		"SELECT * FROM r TP EXCEPT s ORDER BY P DESC LIMIT 1",
		"SELECT DISTINCT Key FROM r LIMIT 1",
	} {
		resp, err := c.Query(ctx, q)
		se, ok := err.(*client.ServerError)
		if !ok || se.ErrClass != "budget" || resp.ErrClass != "budget" {
			t.Errorf("%s: err = %v, want ErrClass budget", q, err)
		}
	}
	// The budget is per statement: the session still serves a query
	// that fits.
	if resp, err := c.Query(ctx, "SELECT * FROM r LIMIT 1"); err != nil || resp.RowCount != 1 {
		t.Fatalf("after the budget errors: rows=%v err=%v", resp, err)
	}
}
