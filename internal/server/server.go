// Package server implements tpserverd's concurrent TP-SQL query service:
// a session manager multiplexing many client connections over one shared,
// concurrency-safe catalog, with per-session settings (SET strategy =
// auto|nj|ta|pnj|pta, SET ta_nested_loop, SET calibration), per-query
// context cancellation and timeouts (which abort even the blocking
// TA/PNJ/PTA strategies mid-Open), EXPLAIN /
// EXPLAIN ANALYZE passthrough with the per-operator tree as structured
// wire fields, and the observability layer (internal/obs): every
// statement gets a monotonic per-process query ID echoed in
// Response.QueryID, stamped on the EXPLAIN ANALYZE trailer and attached
// to its structured query-log record, so an operator can join a
// slow-query log line to its ANALYZE tree and its latency-histogram
// bucket. Counters, per-strategy latency histograms and per-operator
// ANALYZE aggregates are exposed through the \metrics builtin and —
// identically, one render path — the HTTP admin endpoint (ServeAdmin:
// GET /metrics, /healthz, /readyz and net/http/pprof under
// /debug/pprof/).
//
// The wire protocol (proto.go) is newline-delimited JSON: one Request per
// line in, one Response per line out, strictly in order per connection.
// Each connection is one session backed by a shell.Core, so the server
// speaks exactly the REPL dialect — the two surfaces share one dispatch
// implementation and cannot drift.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/fault"
	"tpjoin/internal/mem"
	"tpjoin/internal/obs"
	"tpjoin/internal/plan"
	"tpjoin/internal/shell"
)

// Config carries the server knobs.
type Config struct {
	// DefaultTimeout bounds each query's execution when the request does
	// not ask for its own timeout. Zero means no default timeout.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (and the default). Zero
	// means uncapped.
	MaxTimeout time.Duration
	// Logf, when non-nil, receives one line per session open/close and
	// per protocol error.
	Logf func(format string, args ...any)
	// QueryLog, when non-nil, receives one structured audit record per
	// evaluated statement (query ID, session, statement, strategy, rows,
	// latency, error class); records slower than its slow-query threshold
	// log at WARN.
	QueryLog *obs.QueryLog

	// MaxInflight bounds concurrently executing statements (admission
	// control); 0 disables the gate. Statements beyond it wait in a
	// bounded FIFO queue of QueueDepth seats for up to QueueWait
	// (defaulting to 1s when the gate is on), then are rejected before
	// planning with ErrClass "overloaded".
	MaxInflight int
	QueueDepth  int
	QueueWait   time.Duration

	// MemoryBudget is the default per-query memory budget in bytes; 0
	// means unlimited. Sessions override it with SET memory_budget
	// (including `off`). Budget-exceeded queries abort with ErrClass
	// "budget".
	MemoryBudget int64
}

// Server serves TP-SQL sessions over a shared catalog.
type Server struct {
	cat     *catalog.Catalog
	cfg     Config
	metrics *obs.Metrics

	// planCache counts every session's EXECUTE plan hits and misses; the
	// memo behind them lives on each session's prepared statements.
	planCache plan.Cache

	// nextQueryID hands out the monotonic per-process query identity
	// attached to every evaluated statement (Response.QueryID, the query
	// log, the EXPLAIN ANALYZE trailer).
	nextQueryID atomic.Uint64

	// baseCtx parents every per-query context; baseCancel fires on Close
	// so shutdown interrupts in-flight queries at their next cancellation
	// check instead of waiting them out.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// adm is the admission gate (nil when Config.MaxInflight is 0).
	adm *admission

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]*sessState
	admin *adminServer
	// draining is set by Shutdown: stop accepting, finish in-flight
	// statements, close sessions at their next statement boundary.
	// shutdown is the hard stop (Close).
	draining bool
	shutdown bool

	wg sync.WaitGroup
	// queryWG spans every in-flight statement from admission through
	// response encode; Shutdown waits on it up to the drain deadline.
	// Add happens under mu and only while !draining, so it cannot race
	// Shutdown's Wait.
	queryWG sync.WaitGroup
}

// sessState is the per-connection state the drain logic needs: whether
// the session is between Decode and response encode right now. Guarded
// by Server.mu.
type sessState struct {
	busy bool
}

// New returns a server over cat. The catalog is shared by all sessions;
// callers typically preload it (shell.PreloadFig1a, \gen, \load).
func New(cat *catalog.Catalog, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	m := obs.NewMetrics()
	s := &Server{cat: cat, cfg: cfg, metrics: m,
		adm:   newAdmission(m, cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait),
		conns: make(map[net.Conn]*sessState), baseCtx: ctx, baseCancel: cancel}
	m.SetPlanCache(s.planCache.Stats)
	return s
}

// Metrics returns a snapshot of the server counters.
func (s *Server) Metrics() obs.MetricsSnapshot { return s.metrics.Snapshot() }

// Catalog returns the shared catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// ListenAndServe listens on the TCP address addr and serves sessions
// until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln, one session goroutine per connection,
// until Close. It always closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("listening on %s", ln.Addr())
	var acceptDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err == nil {
			// Chaos hook: an armed "server.accept" failpoint turns a
			// successful accept into an accept error (the connection is
			// dropped), driving the transient-retry path below.
			if ferr := fault.Inject("server.accept"); ferr != nil {
				conn.Close()
				err = fmt.Errorf("accept: %w", ferr)
			}
		}
		if err != nil {
			s.mu.Lock()
			closed := s.shutdown || s.draining
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Retry transient accept failures (fd exhaustion under load,
			// connections aborted in the backlog) with backoff, like
			// net/http.Server — a busy moment must not stop the accept
			// loop for good. The classification is explicit
			// (isTransientAccept) rather than the deprecated
			// net.Error.Temporary().
			if isTransientAccept(err) {
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.logf("accept error (retrying in %v): %v", acceptDelay, err)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		s.mu.Lock()
		if s.shutdown || s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		st := &sessState{}
		s.conns[conn] = st
		// Add must happen under the same lock that excludes Close's
		// Wait-after-drain, or a session could be spawned after Close
		// returned.
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(conn, st)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting (on both the query listener and the admin HTTP
// endpoint), closes all live sessions, hard-cancels in-flight statements
// (baseCancel) and waits for the session goroutines to drain. For a
// graceful stop that lets in-flight statements finish first, use
// Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	ln := s.ln
	admin := s.admin
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	var err error
	if ln != nil {
		// Shutdown closes the listener before falling back to Close;
		// net.ErrClosed here is that, not a failure.
		if err = ln.Close(); errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	if admin != nil {
		admin.close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, flips /readyz to 503, closes idle sessions, and lets
// statements already in flight — and sessions mid-statement — finish and
// deliver their responses. Sessions end at their next statement boundary.
// When every in-flight statement has completed, or ctx expires
// (-drain-timeout), Shutdown falls back to Close: the remaining
// statements are hard-cancelled through the per-query context exactly as
// a plain Close would. It returns ctx's error if the drain deadline
// forced the fallback, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	already := s.draining
	s.draining = true
	ln := s.ln
	if !already {
		// Idle sessions (not between Decode and response encode) have
		// nothing to deliver; close them now. Busy ones are closed by
		// their own session loop right after the in-flight response is
		// written.
		for c, st := range s.conns {
			if !st.busy {
				c.Close()
			}
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // Serve observes draining and returns nil
	}
	s.logf("draining: waiting for in-flight statements")
	done := make(chan struct{})
	go func() { s.queryWG.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.logf("drain deadline expired; cancelling in-flight statements")
	}
	if err := s.Close(); drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// beginStatement marks st busy and registers the statement with the
// drain accounting. It refuses (false) once the server is draining or
// closed — the session loop then exits without answering, and the
// connection is torn down.
func (s *Server) beginStatement(st *sessState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown || s.draining {
		return false
	}
	st.busy = true
	s.queryWG.Add(1)
	return true
}

// endStatement is beginStatement's counterpart, called after the
// response encode so a drain sweeping idle connections cannot close one
// whose response is still being written.
func (s *Server) endStatement(st *sessState) {
	s.mu.Lock()
	st.busy = false
	s.mu.Unlock()
	s.queryWG.Done()
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// session runs one connection: a shell.Core with private SET settings
// over the shared catalog, answering requests sequentially.
func (s *Server) session(conn net.Conn, st *sessState) {
	defer s.wg.Done()
	remote := conn.RemoteAddr().String()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.SessionClosed()
		s.logf("session %s closed", remote)
	}()
	// Last-resort containment for panics escaping the per-statement
	// guards (and the "server.session" chaos failpoint): one session's
	// panic must never take the shared process down. Registered after the
	// cleanup defer above, so unwinding still runs the cleanup.
	defer func() {
		if r := recover(); r != nil {
			s.logf("session %s panic (contained, session dropped): %v", remote, r)
		}
	}()
	s.metrics.SessionOpened()
	s.logf("session %s opened", remote)
	if err := fault.Inject("server.session"); err != nil {
		s.logf("session %s: injected fault: %v", remote, err)
		return
	}

	core := shell.NewCore(s.cat)
	// Every session counts into the server-wide plan counters. The memo
	// lookup runs inside Core.Eval, i.e. after handle()'s admission
	// acquire — a shed statement never touches the memo, let alone the
	// planner.
	core.PlanCache = &s.planCache
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			// EOF and connection resets end the session silently; a
			// malformed line is unrecoverable mid-stream, so report it
			// and hang up.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				_ = enc.Encode(Response{ID: req.ID, Kind: KindNone,
					Error: fmt.Sprintf("protocol: %v", err)})
			}
			return
		}
		// Chaos hook: a decode-side wire fault hangs up mid-stream, like
		// a peer vanishing between request and response.
		if err := fault.Inject("server.wire.decode"); err != nil {
			s.logf("session %s: injected decode fault: %v", remote, err)
			return
		}
		if s.serveOne(core, st, &req, remote, enc) {
			return
		}
	}
}

// serveOne answers one decoded request and reports whether the session
// should end (quit, encode failure, drain, or injected wire fault). The
// busy window — beginStatement through the deferred endStatement — spans
// the response encode, so a drain never closes a connection whose
// response is in flight.
func (s *Server) serveOne(core *shell.Core, st *sessState, req *Request, remote string, enc *json.Encoder) (stop bool) {
	if !s.beginStatement(st) {
		return true
	}
	defer s.endStatement(st)
	resp := s.handle(core, req, remote)
	// Chaos hook: an encode-side wire fault drops the connection
	// mid-response — the query ran, the client never hears back.
	if err := fault.Inject("server.wire.encode"); err != nil {
		s.logf("session %s: injected encode fault: %v", remote, err)
		return true
	}
	if err := enc.Encode(&resp); err != nil {
		return true
	}
	return resp.Kind == KindQuit || s.isDraining()
}

// handle evaluates one request on the session's core: passes the
// admission gate, assigns the query ID, runs the statement under its
// context (carrying the session's memory budget), folds the outcome into
// the metrics and the query log, and stamps the ID on the response (and
// on the EXPLAIN ANALYZE trailer, re-rendered so the text and the
// structured tree agree).
func (s *Server) handle(core *shell.Core, req *Request, remote string) Response {
	if resp, ok := s.builtin(req); ok {
		// Server builtins (\metrics) bypass admission: the metrics must
		// stay reachable exactly when the gate is shedding load.
		return resp
	}
	qid := s.nextQueryID.Add(1)
	admitStart := time.Now()
	if err := s.adm.acquire(s.baseCtx); err != nil {
		// Rejected before planning: no execution context, no eval — the
		// whole point of admission control is spending nothing on shed
		// load. The rejection still gets a query ID, an audit record
		// (with the queue wait, classed overloaded/canceled) and a
		// metrics observation, so shed load is visible everywhere a
		// served query would be.
		return s.reject(core, req, remote, qid, err, time.Since(admitStart))
	}
	defer s.adm.release()
	queueWait := time.Since(admitStart)

	// Chaos hook between admission and execution: tests park statements
	// here (a blocking behavior) to hold slots deterministically, or fail
	// them to exercise the post-admission error path.
	if ferr := fault.Inject("server.handle"); ferr != nil {
		resp := Response{ID: req.ID, Kind: KindNone, Error: ferr.Error(),
			ErrClass: errClass(ferr), QueryID: qid}
		return resp
	}

	ctx, cancel := s.queryContext(req)
	defer cancel()
	if b := core.Session.EffectiveMemBudget(s.cfg.MemoryBudget); b > 0 {
		ctx = mem.WithGauge(ctx, mem.NewGauge(b))
	}
	start := time.Now()
	res, err := s.eval(core, ctx, req.Query)
	elapsed := time.Since(start)

	var resp Response
	if err != nil {
		resp = Response{ID: req.ID, Kind: KindNone, Error: err.Error(),
			Usage: shell.IsUsageError(err), ErrClass: errClass(err)}
	} else {
		resp = encodeResult(res)
		resp.ID = req.ID
		if res.Plan != nil {
			// Stamp the query ID on the plan tree; ANALYZE renders it in
			// the trailer, so re-render the message to keep the text and
			// the structured tree in agreement.
			res.Plan.QueryID = qid
			if res.Plan.Analyze {
				resp.Message = res.Plan.Render()
			}
		}
	}
	resp.QueryID = qid
	resp.ElapsedUS = elapsed.Microseconds()

	// One QueryOutcome feeds the counters and histograms; the accounting
	// rules (per-strategy attribution, auto-pick tallies, ANALYZE
	// aggregates, timeout classification) live in obs and are shared with
	// the REPL surface.
	strategy := obs.EffectiveStrategy(core.Session)
	_, auto, planned := core.Session.PlannedJoin()
	s.metrics.ObserveQuery(obs.QueryOutcome{
		Strategy: strategy,
		AutoPick: planned && auto,
		RowsKind: resp.Kind == KindRows,
		Rows:     resp.RowCount,
		Elapsed:  elapsed,
		Err:      err,
		Plan:     resp.Plan,
	})
	if s.cfg.QueryLog != nil {
		rec := obs.QueryRecord{
			ID:        qid,
			Session:   remote,
			Statement: req.Query,
			Strategy:  strategy.String(),
			Auto:      planned && auto,
			Rows:      resp.RowCount,
			Elapsed:   elapsed,
			QueueWait: queueWait,
			ErrClass:  errClass(err),
		}
		if err != nil {
			rec.Err = err.Error()
		}
		s.cfg.QueryLog.Record(rec)
	}
	return resp
}

// reject builds the response and accounting for a statement the
// admission gate refused: Elapsed is zero (nothing executed) and the
// audit record carries the queue wait separately, so overload shows up
// as admission latency, never as engine slowness.
func (s *Server) reject(core *shell.Core, req *Request, remote string, qid uint64, err error, wait time.Duration) Response {
	resp := Response{ID: req.ID, Kind: KindNone, Error: err.Error(),
		ErrClass: errClass(err), QueryID: qid}
	strategy := obs.EffectiveStrategy(core.Session)
	s.metrics.ObserveQuery(obs.QueryOutcome{Strategy: strategy, Err: err})
	if s.cfg.QueryLog != nil {
		s.cfg.QueryLog.Record(obs.QueryRecord{
			ID:        qid,
			Session:   remote,
			Statement: req.Query,
			Strategy:  strategy.String(),
			QueueWait: wait,
			ErrClass:  errClass(err),
			Err:       err.Error(),
		})
	}
	return resp
}

// errClass maps an evaluation error to its wire and query-log class.
func errClass(err error) obs.ErrClass {
	switch {
	case err == nil:
		return obs.ErrClass{}
	case isOverload(err):
		// Retryable: the statement never ran; tpcli backs off and resends.
		return obs.ErrClassOverloaded
	case mem.IsBudget(err):
		return obs.ErrClassBudget
	case errors.Is(err, context.DeadlineExceeded):
		return obs.ErrClassTimeout
	case errors.Is(err, context.Canceled):
		return obs.ErrClassCanceled
	case shell.IsUsageError(err):
		return obs.ErrClassUsage
	case shell.IsPanicError(err):
		return obs.ErrClassPanic
	default:
		return obs.ErrClassError
	}
}

// eval runs one statement with panic containment: the engine panics on
// some invalid cross-relation states (e.g. joining a stale CREATE TABLE
// snapshot against a regenerated workload with conflicting base-event
// probabilities), and an untrusted client must not be able to take the
// shared server down with one. shell.Core.Eval converts the panic into
// that query's error (every surface shares the containment); the server
// additionally logs it — a panic is worth an operator's attention even
// though the session lives on — and keeps a last-resort recover for
// panics raised outside Core.Eval's own guard.
func (s *Server) eval(core *shell.Core, ctx context.Context, query string) (res shell.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("query panic: %v", r)
			res, err = shell.Result{}, fmt.Errorf("query panic: %v", r)
		}
	}()
	res, err = core.Eval(ctx, query)
	if shell.IsPanicError(err) {
		s.logf("%v", err)
	}
	return res, err
}

// builtin intercepts server-level commands that exist only on the remote
// surface.
func (s *Server) builtin(req *Request) (Response, bool) {
	switch strings.TrimSpace(req.Query) {
	case `\metrics`:
		return Response{ID: req.ID, OK: true, Kind: KindMessage,
			Message: s.Metrics().Render()}, true
	default:
		return Response{}, false
	}
}

// queryContext derives the per-query context from the server default and
// the request override, capped by MaxTimeout.
func (s *Server) queryContext(req *Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout <= 0 {
		return context.WithCancel(s.baseCtx)
	}
	return context.WithTimeout(s.baseCtx, timeout)
}
