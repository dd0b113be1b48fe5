package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/client"
	"tpjoin/internal/obs"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
)

// TestDialContextRetriesUntilServerUp: DialContext must keep redialing
// with backoff while the address refuses connections and succeed as soon
// as a server starts listening — the restart-drain window a deploy
// creates.
func TestDialContextRetriesUntilServerUp(t *testing.T) {
	// Reserve an address, then free it so the first dial attempts are
	// refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cat := catalog.New()
	shell.PreloadFig1a(cat)
	srv := server.New(cat, server.Config{})
	serveDone := make(chan error, 1)
	go func() {
		// The server comes up only after the client has started dialing.
		time.Sleep(100 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			serveDone <- err
			return
		}
		serveDone <- srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	c, err := client.DialContext(ctx, addr)
	if err != nil {
		t.Fatalf("DialContext never reached the late server: %v", err)
	}
	defer c.Close()
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Errorf("connected in %v; the first dials should have been refused", took)
	}
	if resp, err := c.Query(ctx, "SELECT * FROM a TP LEFT JOIN b ON a.Loc = b.Loc"); err != nil || resp.RowCount == 0 {
		t.Fatalf("query on retried connection: rows=%v err=%v", resp, err)
	}
}

// TestDialContextDeadline: a dead address must fail within the context
// deadline, carrying both the context error and the last dial error.
func TestDialContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.DialContext(ctx, addr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("DialContext took %v past a 200ms deadline", took)
	}
}

// TestIsOverloaded pins the retryability test to the wire error class.
func TestIsOverloaded(t *testing.T) {
	if !client.IsOverloaded(&client.ServerError{Msg: "x", ErrClass: obs.ErrClassOverloaded}) {
		t.Error("overloaded ServerError not detected")
	}
	if client.IsOverloaded(&client.ServerError{Msg: "x", ErrClass: obs.ErrClassBudget}) {
		t.Error("budget ServerError misread as overloaded")
	}
	if client.IsOverloaded(errors.New("x")) {
		t.Error("plain error misread as overloaded")
	}
}
