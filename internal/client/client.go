// Package client is a small Go client library for tpserverd's
// newline-delimited JSON protocol (internal/server). One Client is one
// session: the server keeps per-connection SET settings, so issue
// `SET strategy = ta` on the client whose queries should use it.
//
// A Client serializes its requests (one in flight at a time), matching
// the protocol's strict request/response ordering. Use one Client per
// goroutine — or rely on the internal mutex, which makes concurrent
// Query calls safe but sequential.
//
// EXPLAIN ANALYZE responses carry the structured per-operator tree in
// Response.Plan (rows, wall time, strategy stage counters and, for a
// query aborted by its timeout, the abort reason) besides the rendered
// text in Response.Message.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"tpjoin/internal/obs"
	"tpjoin/internal/server"
)

// Client is one open session against a tpserverd instance.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	enc    *json.Encoder
	dec    *json.Decoder
	nextID uint64
	// broken records a transport failure. The protocol is strictly
	// request/response; once a send, receive or id match fails the stream
	// position is unknowable, so the session is poisoned rather than
	// risking a stale response being read as the answer to a later query.
	broken error
}

// Dial connects to a tpserverd at addr (host:port) with one attempt and
// no timeout. Prefer DialContext for anything beyond a local smoke test.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialContext connects to a tpserverd at addr, retrying failed dial
// attempts with jittered exponential backoff (50ms doubling to a 2s cap)
// until ctx expires. The ctx deadline doubles as the per-attempt connect
// timeout, so a black-holed address cannot outlive the caller's budget.
// With no deadline it retries until the server appears or ctx is
// canceled — the "wait for the server to come up" loop a restart-drain
// window needs.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	backoff := 50 * time.Millisecond
	// One timer reused across attempts: time.After in a retry loop leaks a
	// live timer per iteration until it fires (Reset after a receive needs
	// no drain since Go 1.23).
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return NewClient(conn), nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("client: dial %s: %w (last attempt: %v)", addr, ctx.Err(), err)
		}
		// Full backoff/2 base plus up to backoff/2 of jitter: a fleet of
		// clients re-dialing a restarted server spreads out instead of
		// stampeding in lockstep.
		timer.Reset(backoff/2 + rand.N(backoff/2+1))
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, fmt.Errorf("client: dial %s: %w (last attempt: %v)", addr, ctx.Err(), err)
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// NewClient wraps an established connection (useful for tests and custom
// transports).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

// Close hangs up the session.
func (c *Client) Close() error { return c.conn.Close() }

// Query sends one input line (SQL statement or backslash command) and
// waits for its response. A deadline on ctx bounds the network wait and
// is also forwarded to the server as the per-query execution timeout. A
// response with a non-empty Error is returned as a *ServerError so
// callers can distinguish query failures from transport failures.
// timeoutSlack is how much of the caller's deadline budget is reserved
// for the network round trip: the server is asked to time out this much
// earlier than the connection read deadline, so an execution timeout
// arrives as the server's clean error response instead of racing the
// client's own deadline (which would poison the session).
const timeoutSlack = 50 * time.Millisecond

func (c *Client) Query(ctx context.Context, query string) (*server.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, fmt.Errorf("client: session poisoned by earlier failure: %w", c.broken)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.nextID++
	req := server.Request{ID: c.nextID, Query: query}
	if dl, ok := ctx.Deadline(); ok {
		if err := c.conn.SetDeadline(dl); err != nil {
			return nil, err
		}
		defer func() {
			// Once the session is poisoned the connection deadline must
			// stay in place: clearing it would let a later misuse block
			// forever on the dead stream, and a reset failure here must
			// not overwrite the original transport error — annotate the
			// poison instead.
			if c.broken != nil {
				return
			}
			if err := c.conn.SetDeadline(time.Time{}); err != nil {
				c.broken = fmt.Errorf("clearing connection deadline: %w", err)
			}
		}()
		exec := time.Until(dl) - timeoutSlack
		if min := time.Until(dl) / 2; exec < min {
			exec = min
		}
		if ms := exec.Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	// A cancellation mid-wait unblocks the pending read by expiring the
	// connection deadline; the session is then poisoned (the response is
	// still in flight), which is the only sound outcome on this strictly
	// ordered protocol.
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	if err := c.enc.Encode(&req); err != nil {
		c.broken = err
		return nil, fmt.Errorf("client: send: %w", err)
	}
	var resp server.Response
	if err := c.dec.Decode(&resp); err != nil {
		c.broken = err
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("client: server closed the session")
		}
		return nil, fmt.Errorf("client: receive: %w", err)
	}
	if resp.ID != req.ID {
		c.broken = fmt.Errorf("response id %d for request %d", resp.ID, req.ID)
		return nil, fmt.Errorf("client: %w", c.broken)
	}
	if resp.Error != "" {
		return &resp, &ServerError{Msg: resp.Error, Usage: resp.Usage, ErrClass: resp.ErrClass}
	}
	return &resp, nil
}

// ServerError is a query-level failure reported by the server (parse
// error, unknown relation, execution timeout, ...). The session remains
// usable after it. Usage marks usage lines and unknown-command notices,
// which the REPL renders verbatim without an "error:" prefix. ErrClass
// carries the server's failure classification (see server.Response);
// obs.ErrClassOverloaded means the statement was shed before planning and
// is safe to retry — IsOverloaded checks for it.
type ServerError struct {
	Msg      string
	Usage    bool
	ErrClass obs.ErrClass
}

func (e *ServerError) Error() string { return e.Msg }

// IsOverloaded reports whether err is a server admission-control
// rejection: the statement never started executing, so retrying it (with
// backoff) is safe even for non-idempotent statements.
func IsOverloaded(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.ErrClass == obs.ErrClassOverloaded
}

// Render writes resp to w exactly as the in-process shell would render
// the same statement.
func Render(w io.Writer, resp *server.Response) { server.RenderResponse(w, resp) }
