package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/client"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
	"tpjoin/internal/tp"
)

// env is one set-up of a workload: generated relations in a catalog, an
// in-process tpserverd on a loopback listener and one client session.
type env struct {
	w    *workload
	seed int64
	r, s *tp.Relation
	cat  *catalog.Catalog
	srv  *server.Server
	addr string
	// served receives Serve's return value once the server has stopped.
	served chan error
	sess   *session

	genDur, regDur time.Duration
}

// session is one client connection with its op.
type session struct {
	conn     *meterConn
	cl       *client.Client
	script   []stmt
	layerSQL string
}

// setUp builds the env and opens its session. The server keeps its
// defaults (no admission gate, no timeouts, default plan cache, GOGC
// untouched).
func setUp(w *workload, seed int64) (*env, error) {
	e := &env{w: w, seed: seed, served: make(chan error, 1)}
	t0 := time.Now()
	e.r, e.s = w.gen(w.n, seed)
	e.genDur = time.Since(t0)

	e.cat = catalog.New()
	if w.fig {
		shell.PreloadFig1a(e.cat)
	}
	t0 = time.Now()
	for _, rel := range []*tp.Relation{e.r, e.s} {
		if err := e.cat.Register(rel); err != nil {
			return nil, fmt.Errorf("register %s: %w", rel.Name, err)
		}
	}
	e.regDur = time.Since(t0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	e.srv = server.New(e.cat, server.Config{})
	go func() { e.served <- e.srv.Serve(ln) }()

	if e.sess, err = e.dial("t"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// dial opens a session that may create and drop the given table and
// issues the workload's session statements on it. Every session of an env
// gets the same seeded script, table name apart.
func (e *env) dial(table string) (*session, error) {
	c, err := net.Dial("tcp", e.addr)
	if err != nil {
		return nil, err
	}
	conn := &meterConn{Conn: c}
	s := &session{conn: conn, cl: client.NewClient(conn)}
	s.script, s.layerSQL = e.w.script(rand.New(rand.NewSource(e.seed)), e.r, table)
	for _, q := range e.w.session {
		if _, err := s.cl.Query(context.Background(), q); err != nil {
			s.cl.Close()
			return nil, fmt.Errorf("session set-up %q: %w", q, err)
		}
	}
	return s, nil
}

// close hangs up the env's own session, stops the server and waits until
// its accept loop and session goroutines have ended.
func (e *env) close() {
	if e.sess != nil {
		e.sess.cl.Close()
	}
	e.srv.Close()
	<-e.served
}

// opResult is what the client saw of one op.
type opResult struct {
	lat, ttfb time.Duration // summed over the op's statements
	bytes     int64         // response bytes read
	resps     []*server.Response
}

// do runs one op. A statement the server answers with an error stays in
// resps (the gate counts it as failed); only a transport failure, after
// which the session is unusable, is returned as an error.
func (s *session) do() (opResult, error) {
	var res opResult
	before := s.conn.readBytes
	for _, st := range s.script {
		t0 := time.Now()
		resp, err := s.cl.Query(context.Background(), st.text)
		res.lat += time.Since(t0)
		var se *client.ServerError
		if err != nil && !errors.As(err, &se) {
			return res, fmt.Errorf("%q: %w", st.text, err)
		}
		res.ttfb += s.conn.firstByte
		res.resps = append(res.resps, resp)
	}
	res.bytes = s.conn.readBytes - before
	return res, nil
}

// expectation is what one statement must return: the gate's reference,
// taken from an in-process evaluation.
type expectation struct {
	rows int
	sum  uint64 // FNV-64a of the rendered output
	// bag is the sum of the FNV-64a of every rendered line of the
	// coalesced result: equal for two outputs that differ only in row order
	// and in how they chunk time, which is all NJ and TA may differ in (TA
	// emits a pairing once per aligned fragment, NJ once per overlap).
	bag uint64
}

func (x expectation) String() string {
	return fmt.Sprintf("%d rows, fnv %016x, row-bag %016x", x.rows, x.sum, x.bag)
}

// digest folds the expectations of an op into one line for the report.
func digest(want []expectation) expectation {
	if len(want) == 1 {
		return want[0]
	}
	var all expectation
	h := fnv.New64a()
	for _, x := range want {
		all.rows += x.rows
		all.bag += x.bag
		fmt.Fprintf(h, "%016x", x.sum)
	}
	all.sum = h.Sum64()
	return all
}

// evalScript evaluates the session statements and then script on a fresh
// shell.Core over the env's catalog — the path the server wraps, without
// the server.
func (e *env) evalScript(session []string, script []stmt) ([]expectation, error) {
	core := shell.NewCore(e.cat)
	for _, q := range session {
		if _, err := core.Eval(context.Background(), q); err != nil {
			return nil, fmt.Errorf("in-process %q: %w", q, err)
		}
	}
	out := make([]expectation, len(script))
	for i, st := range script {
		res, err := core.Eval(context.Background(), st.text)
		if err != nil {
			return nil, fmt.Errorf("in-process %q: %w", st.text, err)
		}
		var buf bytes.Buffer
		shell.RenderResult(&buf, res)
		out[i] = expectation{sum: fnvSum(buf.Bytes())}
		if res.Kind == shell.KindRows {
			out[i].rows = res.Rel.Len()
			buf.Reset()
			shell.RenderTable(&buf, tp.Coalesce(res.Rel))
		}
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			out[i].bag += fnvSum(line)
		}
	}
	return out, nil
}

// expectations is the correctness gate's reference for the env's session:
// every statement evaluated once in process. A workload with a twin check
// also has to pass it here.
func (e *env) expectations() ([]expectation, error) {
	if tw := e.w.twin; tw != nil {
		check := []stmt{{text: tw.sql}}
		own, err := e.evalScript(e.w.session, check)
		if err != nil {
			return nil, err
		}
		other, err := e.evalScript(tw.session, check)
		if err != nil {
			return nil, err
		}
		if own[0].bag != other[0].bag {
			return nil, fmt.Errorf("%q: %v under %v but %v under %v",
				tw.sql, own[0], e.w.session, other[0], tw.session)
		}
	}
	return e.evalScript(e.w.session, e.sess.script)
}

// verify reports whether the op's responses match the gate's reference.
func verify(script []stmt, want []expectation, resps []*server.Response) bool {
	for i, resp := range resps {
		if resp == nil || resp.Error != "" {
			return false
		}
		if script[i].loose {
			if resp.Message == "" {
				return false
			}
			continue
		}
		h := fnv.New64a()
		client.Render(h, resp)
		if resp.RowCount != want[i].rows || h.Sum64() != want[i].sum {
			return false
		}
	}
	return len(resps) == len(script)
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
