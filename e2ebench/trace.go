package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/client"
	"tpjoin/internal/core"
	"tpjoin/internal/engine"
	"tpjoin/internal/lineage"
	"tpjoin/internal/plan"
	"tpjoin/internal/prob"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
	"tpjoin/internal/sql"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// span is one timed call into a layer. The tracer lives in the benchmark:
// it times calls into the layers' exported functions from outside, so the
// program under test carries no instrumentation. Parent is the span that
// logically contains this one (0 for a root): the wire op is traced live,
// the layers below it by replaying the same statements in process right
// after it, so a child's interval does not lie inside its parent's, and
// self time is duration minus the children's durations.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"` // spans of one op share it
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the trace began
	EndUS   float64 `json:"end_us"`
	Allocs  uint64  `json:"allocs,omitempty"` // heap objects allocated inside
	N       int64   `json:"n,omitempty"`      // the count taken at this boundary
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1e3 }

type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

// call times f as a span; f returns the count recorded at this boundary
// (rows, windows, bytes, ...).
func (t *tracer) call(name string, parent int, f func() int64) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Since(t.t0)
	n := f()
	end := time.Since(t.t0)
	runtime.ReadMemStats(&m1)
	return t.add(span{Parent: parent, Name: name, StartUS: us(start), EndUS: us(end),
		Allocs: m1.Mallocs - m0.Mallocs, N: n})
}

// derived records a span whose duration was not timed here: reported by
// the server (Response.ElapsedUS), measured by the client, or a residual.
func (t *tracer) derived(name string, parent int, dur time.Duration, n int64) int {
	end := time.Since(t.t0)
	return t.add(span{Parent: parent, Name: name, StartUS: us(end - dur), EndUS: us(end), N: n})
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	s.Op = t.op
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) dur(id int) time.Duration {
	s := t.spans[id-1]
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfTimes derives each span's self time in ms: its duration minus the
// durations of the spans naming it as parent.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.durMS()
		if s.Parent != 0 {
			self[s.Parent] -= s.durMS()
		}
	}
	return self
}

// perOp sums field over the spans called name within each op and returns
// the sums of the ops that have such a span, in op order.
func perOp(spans []span, name string, field func(span) float64) []float64 {
	sums := map[int]float64{}
	var ops []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += field(s)
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

func spanMS(s span) float64     { return s.durMS() }
func spanUS(s span) float64     { return s.EndUS - s.StartUS }
func spanAllocs(s span) float64 { return float64(s.Allocs) }
func spanN(s span) float64      { return float64(s.N) }

// layerMetric is a per-layer metric read off the spans: the median over
// the traced ops of field summed over the op's spans called span. Times
// are brought to reference host speed like the end-to-end ones.
type layerMetric struct {
	metricDef
	span  string
	field func(span) float64
	timed bool
}

// spanMetrics lists the per-layer metrics that come straight from spans;
// layer = package name. derivedMetrics below are computed from several.
var spanMetrics = []layerMetric{
	{metricDef{"client.query_ms", "ms", "lower"}, "client.query", spanMS, true},
	{metricDef{"client.decode_ms", "ms", "lower"}, "client.decode", spanMS, true},
	{metricDef{"client.decode_allocs", "count", "lower"}, "client.decode", spanAllocs, false},
	{metricDef{"client.render_ms", "ms", "lower"}, "client.render", spanMS, true},
	{metricDef{"server.elapsed_ms", "ms", "lower"}, "server.elapsed", spanMS, true},
	{metricDef{"server.encode_ms", "ms", "lower"}, "server.encode", spanMS, true},
	{metricDef{"server.encode_allocs", "count", "lower"}, "server.encode", spanAllocs, false},
	{metricDef{"server.wire_ms", "ms", "lower"}, "server.wire", spanMS, true},
	{metricDef{"server.resp_bytes", "B", "lower"}, "client.query", spanN, false},
	{metricDef{"shell.eval_ms", "ms", "lower"}, "shell.eval", spanMS, true},
	{metricDef{"sql.parse_us", "us", "lower"}, "sql.parse", spanUS, true},
	{metricDef{"stats.compute_ms", "ms", "lower"}, "stats.compute", spanMS, true},
	{metricDef{"plan.build_us", "us", "lower"}, "plan.build", spanUS, true},
	{metricDef{"plan.prepared_hit_us", "us", "lower"}, "plan.prepared_hit", spanUS, true},
	{metricDef{"engine.run_ms", "ms", "lower"}, "engine.run", spanMS, true},
	{metricDef{"engine.run_allocs", "count", "lower"}, "engine.run", spanAllocs, false},
	{metricDef{"engine.rows", "count", "lower"}, "engine.run", spanN, false},
	{metricDef{"core.windows_ms", "ms", "lower"}, "core.windows", spanMS, true},
	{metricDef{"core.windows", "count", "lower"}, "core.windows", spanN, false},
	{metricDef{"core.join_ms", "ms", "lower"}, "core.join", spanMS, true},
	{metricDef{"core.join_allocs", "count", "lower"}, "core.join", spanAllocs, false},
	{metricDef{"core.parallel_join_ms", "ms", "lower"}, "core.parallel_join", spanMS, true},
	{metricDef{"align.count_ms", "ms", "lower"}, "align.count", spanMS, true},
	{metricDef{"align.join_ms", "ms", "lower"}, "align.join", spanMS, true},
	{metricDef{"align.join_allocs", "count", "lower"}, "align.join", spanAllocs, false},
	{metricDef{"align.parallel_join_ms", "ms", "lower"}, "align.parallel_join", spanMS, true},
	{metricDef{"prob.eval_ms", "ms", "lower"}, "prob.eval", spanMS, true},
	{metricDef{"lineage.form_ms", "ms", "lower"}, "lineage.form", spanMS, true},
	{metricDef{"lineage.render_ms", "ms", "lower"}, "lineage.render", spanMS, true},
	{metricDef{"lineage.literals", "count", "lower"}, "lineage.render", spanN, false},
	{metricDef{"catalog.register_ms", "ms", "lower"}, "catalog.register", spanMS, true},
	{metricDef{"dataset.generate_ms", "ms", "lower"}, "dataset.generate", spanMS, true},
}

var derivedMetrics = []metricDef{
	{"server.scaling_2s", "ratio", "higher"},
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"prob.memo_hit_ratio", "ratio", "higher"},
	{"host.speed", "ratio", "higher"},
	{"host.drift", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// perLayer is every per-layer metric, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range spanMetrics {
		out = append(out, m.metricDef)
	}
	return append(out, derivedMetrics...)
}

// replayer re-runs, in process and on the env's catalog, the layers the
// server goes through for the op's statements. It runs while the server
// is idle, so the two do not compete for the CPUs.
type replayer struct {
	e *env
	// core evaluates the op's statements: a session like the wire one,
	// with the same SETs and PREPAREs and a plan cache of its own.
	core *shell.Core
	// sess plans the layer statement: the settings a session starts its
	// op with, whatever SETs the op's statements leave behind in core.
	sess  *plan.Session
	sel   *sql.Select    // the layer statement, parsed
	prep  *plan.Prepared // the layer statement as a parameterless PREPARE
	cache *plan.Cache    // warm: holds prep's plan
}

func newReplayer(e *env) (*replayer, error) {
	r := &replayer{e: e, core: shell.NewCore(e.cat), cache: plan.NewCache(0)}
	r.core.PlanCache = plan.NewCache(0)
	fresh := shell.NewCore(e.cat)
	for _, q := range e.w.session {
		for _, c := range []*shell.Core{r.core, fresh} {
			if _, err := c.Eval(context.Background(), q); err != nil {
				return nil, fmt.Errorf("replay %q: %w", q, err)
			}
		}
	}
	r.sess = fresh.Session
	st, err := sql.Parse("PREPARE layer AS " + e.sess.layerSQL)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	prep := st.(*sql.Prepare)
	r.sel, r.prep = prep.Query, plan.NewPrepared(prep)
	if _, _, err := plan.PlanPrepared(r.cache, e.cat, r.sess, r.prep, nil); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return r, nil
}

// op records the in-process spans of one op. The tree:
//
//	shell.eval               Core.Eval of every statement of the op
//	├─ sql.parse             sql.Parse of every SQL statement of the op
//	├─ plan.build            plan.Build of the layer statement, warm stats
//	└─ engine.run            engine.RunContext of the built operator
//	   └─ core.join | align.join        the join the op's strategy runs, on r and s
//	      ├─ core.windows | align.count the window pipeline / alignment, counted only
//	      ├─ prob.eval                  BatchEvaluator.EvalBatch over the join's lineages
//	      └─ lineage.form               the rest, by subtraction
//
// and, as roots of their own, the other family's join and count, both
// parallel joins, stats.compute (cold), plan.prepared_hit (warm cache) and
// lineage.render over the rows engine.run returned.
func (r *replayer) op(t *tracer) error {
	ctx := context.Background()
	script := r.e.sess.script
	var fail error
	keep := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	eval := t.call("shell.eval", 0, func() int64 {
		for _, st := range script {
			_, err := r.core.Eval(ctx, st.text)
			keep(err)
		}
		return int64(len(script))
	})
	t.call("sql.parse", eval, func() int64 {
		n := int64(0)
		for _, st := range script {
			if !strings.HasPrefix(st.text, `\`) {
				_, err := sql.Parse(st.text)
				keep(err)
				n++
			}
		}
		return n
	})
	var root engine.Operator
	t.call("plan.build", eval, func() int64 {
		var err error
		root, err = plan.Build(r.sel, r.e.cat, r.sess)
		keep(err)
		return 1
	})
	if fail != nil {
		return fail
	}
	var rows *tp.Relation
	run := t.call("engine.run", eval, func() int64 {
		var err error
		rows, err = engine.RunContext(ctx, root, "result")
		if keep(err); err != nil {
			return 0
		}
		return int64(rows.Len())
	})
	if fail != nil {
		return fail
	}

	rel, sRel := r.e.r, r.e.s
	theta := tp.Equi(0, 0) // ON r.Key = s.Key
	coreParent, alignParent := run, 0
	if r.e.w.ta {
		coreParent, alignParent = 0, run
	}
	var coreOut, alignOut *tp.Relation
	coreJoin := t.call("core.join", coreParent, func() int64 {
		coreOut = core.Join(tp.OpLeft, rel, sRel, theta)
		return int64(coreOut.Len())
	})
	windows := t.call("core.windows", coreJoin, func() int64 {
		return int64(core.Count(core.LAWAN(core.LAWAU(core.OverlapJoin(rel, sRel, theta)))))
	})
	alignJoin := t.call("align.join", alignParent, func() int64 {
		alignOut = align.Join(tp.OpLeft, rel, sRel, theta, align.Config{})
		return int64(alignOut.Len())
	})
	count := t.call("align.count", alignJoin, func() int64 {
		return int64(align.CountWUO(rel, sRel, theta, align.Config{}) +
			align.CountNegating(rel, sRel, theta, align.Config{}))
	})
	join, counted, joined := coreJoin, windows, coreOut
	if r.e.w.ta {
		join, counted, joined = alignJoin, count, alignOut
	}
	es := make([]*lineage.Expr, joined.Len())
	for i, tup := range joined.Tuples {
		es[i] = tup.Lineage
	}
	probs := make([]float64, len(es))
	evalProb := t.call("prob.eval", join, func() int64 {
		bev := prob.NewBatchEvaluator(joined.Probs)
		bev.EvalBatch(es, probs)
		return bev.MemoHits()
	})
	t.derived("lineage.form", join, t.dur(join)-t.dur(counted)-t.dur(evalProb), int64(len(es)))

	t.call("core.parallel_join", 0, func() int64 {
		out, err := core.ParallelJoinContext(ctx, tp.OpLeft, rel, sRel, theta, 2, nil)
		keep(err)
		return int64(out.Len())
	})
	t.call("align.parallel_join", 0, func() int64 {
		out, err := align.ParallelJoinContext(ctx, tp.OpLeft, rel, sRel, theta, align.Config{}, 2, nil)
		keep(err)
		return int64(out.Len())
	})
	t.call("stats.compute", 0, func() int64 {
		return int64(stats.Compute(rel).Tuples + stats.Compute(sRel).Tuples)
	})
	t.call("plan.prepared_hit", 0, func() int64 {
		_, hit, err := plan.PlanPrepared(r.cache, r.e.cat, r.sess, r.prep, nil)
		keep(err)
		if !hit {
			keep(fmt.Errorf("plan.prepared_hit: the warm cache missed"))
		}
		return 1
	})
	literals := int64(0)
	for _, tup := range rows.Tuples {
		literals += int64(lineage.Literals(tup.Lineage))
	}
	t.call("lineage.render", 0, func() int64 {
		for _, tup := range rows.Tuples {
			_ = tup.Lineage.String()
		}
		return literals
	})
	return fail
}

// runTraced is the per-layer measurement: untraced and traced wire ops
// alternate on one session, and each traced op is followed by its replay.
func runTraced(e *env, want []expectation, host *hostSampler, p params, gen, reg float64, out io.Writer) (result, error) {
	rp, err := newReplayer(e)
	if err != nil {
		return result{}, err
	}
	t := &tracer{t0: time.Now()}
	t.derived("dataset.generate", 0, time.Duration(gen*float64(time.Second)), int64(e.r.Len()+e.s.Len()))
	t.derived("catalog.register", 0, time.Duration(reg*float64(time.Second)), 2)

	var untraced []float64
	var failed, hits, executes, memoHits, lineages int
	host.sample()
	for i := 0; i < p.tracedOps; i++ {
		if host.due() {
			host.sample()
		}
		// The two wire ops take turns to go first, so that neither always
		// runs on the caches and garbage the replay left behind.
		t.op = i + 1
		var plain, op opResult
		var raw bytes.Buffer
		for _, capture := range [][]bool{{false, true}, {true, false}}[i%2] {
			var err error
			if capture {
				e.sess.conn.capture = &raw
				op, err = e.sess.do()
				e.sess.conn.capture = nil
			} else {
				plain, err = e.sess.do()
			}
			if err != nil {
				return result{}, err
			}
		}
		if !verify(e.sess.script, want, plain.resps) {
			failed++
		}
		untraced = append(untraced, plain.lat.Seconds()*1e3)
		if !verify(e.sess.script, want, op.resps) {
			failed++
			continue // a wrong response is not worth a layer split
		}
		var elapsed time.Duration
		for _, resp := range op.resps {
			elapsed += time.Duration(resp.ElapsedUS) * time.Microsecond
			if resp.PlanCache != "" {
				executes++
				if resp.PlanCache == "hit" {
					hits++
				}
			}
		}
		query := t.derived("client.query", 0, op.lat, int64(raw.Len()))
		srv := t.derived("server.elapsed", query, elapsed, 0)
		enc := t.call("server.encode", query, func() int64 {
			n := 0
			for _, resp := range op.resps {
				b, err := json.Marshal(resp)
				if err != nil {
					panic(err) // a Response that came off the wire marshals
				}
				n += len(b)
			}
			return int64(n)
		})
		lines := bytes.Split(bytes.TrimSuffix(raw.Bytes(), []byte("\n")), []byte("\n"))
		dec := t.call("client.decode", query, func() int64 {
			for _, line := range lines {
				var resp server.Response
				if err := json.Unmarshal(line, &resp); err != nil {
					panic(err) // the client decoded the same bytes a moment ago
				}
			}
			return int64(len(lines))
		})
		// What is left of the client's wait: building the Response rows
		// (including lineage rendering), syscalls and the loopback.
		t.derived("server.wire", query, op.lat-t.dur(srv)-t.dur(enc)-t.dur(dec), 0)
		t.call("client.render", 0, func() int64 {
			for _, resp := range op.resps {
				client.Render(io.Discard, resp)
			}
			return int64(len(op.resps))
		})
		if err := rp.op(t); err != nil {
			return result{}, fmt.Errorf("replay: %w", err)
		}
	}
	host.sample()
	for _, s := range t.spans {
		if s.Name == "prob.eval" {
			memoHits += int(s.N)
		}
		if s.Name == "lineage.form" {
			lineages += int(s.N)
		}
	}

	second, err := e.dial("t2")
	if err != nil {
		return result{}, err
	}
	defer second.cl.Close()
	one, err := throughput(p.scalingFor, e.sess)
	if err != nil {
		return result{}, err
	}
	two, err := throughput(p.scalingFor, e.sess, second)
	if err != nil {
		return result{}, err
	}

	if p.traceOut != "" {
		if err := writeSpans(p.traceOut, t.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(t.spans), p.traceOut)
	}

	speed := host.speed()
	res := result{Attempted: 2 * p.tracedOps, Failed: failed, Metrics: map[string]metricValue{}}
	emit := func(d metricDef, v float64) {
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-24s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "# traced ops=%d untraced ops=%d failed=%d\n", p.tracedOps, p.tracedOps, failed)
	for _, m := range spanMetrics {
		v := median(perOp(t.spans, m.span, m.field))
		if m.timed {
			v *= speed
		}
		emit(m.metricDef, v)
	}
	traced := median(perOp(t.spans, "client.query", spanMS))
	for _, d := range derivedMetrics {
		switch d.name {
		case "server.scaling_2s":
			emit(d, two/one)
		case "plan.cache_hit_ratio":
			emit(d, ratio(hits, executes))
		case "prob.memo_hit_ratio":
			emit(d, ratio(memoHits, lineages))
		case "host.speed":
			emit(d, speed)
		case "host.drift":
			emit(d, host.drift())
		case "trace.overhead_pct":
			emit(d, (traced/median(untraced)-1)*100)
		}
	}

	// The budget check of the acceptance criteria: the self times of
	// client.query's children against client.query itself.
	self := selfTimes(t.spans)
	var root, kids float64
	for _, s := range t.spans {
		switch {
		case s.Name == "client.query":
			root += s.durMS()
		case s.Parent != 0 && t.spans[s.Parent-1].Name == "client.query":
			kids += self[s.ID]
		}
	}
	fmt.Fprintf(out, "# client.query children self times / client.query = %.4f\n", kids/root)
	return res, nil
}

// ratio is part/whole, 0 when the whole is empty (no EXECUTE in the op).
func ratio(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// throughput runs the sessions' ops concurrently, closed loop each, for d
// and returns the ops completed per second.
func throughput(d time.Duration, sessions ...*session) (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(sessions))
	errs := make([]error, len(sessions))
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; done = time.Since(start) >= d {
				op, err := s.do()
				for _, resp := range op.resps {
					if err == nil && resp.Error != "" {
						err = fmt.Errorf("scaling: %s", resp.Error)
					}
				}
				if err != nil {
					errs[i] = err
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	took := time.Since(start).Seconds()
	total := 0
	for i, n := range counts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += n
	}
	return float64(total) / took, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
