package obs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpjoin/internal/engine"
	"tpjoin/internal/plan"
)

// strategyCount is the number of join strategies broken out in the
// per-strategy counters, taken from the engine's enum so a new strategy
// is counted from the day it exists.
const strategyCount = int(engine.NumStrategies)

// Metrics is the metrics collector shared by tpserverd and the REPL:
// monotonic counters, gauges and lock-free latency/row-count histograms,
// updated atomically by session goroutines. Snapshot returns a
// consistent-enough point-in-time copy (plus runtime gauges read at
// snapshot time); Snapshot().Render() produces the Prometheus text
// exposition served identically by the \metrics builtin and the HTTP
// /metrics endpoint.
//
// Besides the totals, queries, rows and execution time are broken out per
// join strategy (the strategy the planner attributed to the statement),
// per-strategy latency histograms make p50/p99 under concurrent sessions
// observable, and the last query's wall time and row count are exported
// as gauges. Construct with NewMetrics — the histograms need their bucket
// arrays.
type Metrics struct {
	start time.Time

	sessionsOpened atomic.Int64
	sessionsActive atomic.Int64
	queriesServed  atomic.Int64
	queryErrors    atomic.Int64
	queryTimeouts  atomic.Int64
	rowsReturned   atomic.Int64
	execMicros     atomic.Int64

	// lastQuery holds both last-query values behind one pointer, so a
	// \metrics scrape never reports a torn pair (rows from one query,
	// seconds from another) under concurrent sessions.
	lastQuery atomic.Pointer[lastQuerySample]

	// Admission-control accounting: every statement that reaches the
	// admission gate is either admitted (queued counts the subset that
	// waited for a slot first) or rejected as overloaded; queueWait
	// buckets the time spent at the gate either way, and admInflight
	// gauges the statements currently holding a slot.
	admAdmitted atomic.Int64
	admQueued   atomic.Int64
	admRejected atomic.Int64
	admInflight atomic.Int64
	queueWait   *Histogram

	perStrategy [strategyCount]strategyMetrics

	// latency buckets every attributed query's wall time per strategy
	// (tpserverd_query_seconds); queryRows buckets result cardinalities
	// (tpserverd_query_rows).
	latency   [strategyCount]*Histogram
	queryRows *Histogram

	// autoPicks counts, per physical strategy, how many TP joins the
	// cost-based picker (SET strategy = auto) routed there — the server's
	// view of which side of the paper's workload dichotomy its traffic
	// lands on.
	autoPicks [strategyCount]atomic.Int64

	// perOp aggregates the per-operator ANALYZE counters (rows produced
	// and inclusive wall time per operator kind) across every EXPLAIN
	// ANALYZE executed — the same counters the ANALYZE tree reports per
	// query, accumulated for \metrics. Guarded by opMu; ANALYZE is a
	// diagnostic path, so a mutex (not atomics) is fine.
	opMu  sync.Mutex
	perOp map[string]*opCounters

	// planCache, when set (SetPlanCache), supplies the plan-cache counters
	// at snapshot time — the cache keeps its own atomics; the collector
	// only reads a point-in-time copy. Unset, the families read zero.
	planCache atomic.Pointer[func() plan.CacheStats]
}

// SetPlanCache wires the plan-cache counter source (typically
// plan.Cache.Stats) into the exposition; the tpserverd_plan_cache_*
// families appear in every subsequent Snapshot.
func (m *Metrics) SetPlanCache(stats func() plan.CacheStats) {
	m.planCache.Store(&stats)
}

// NewMetrics returns a collector with the standard bucket schemes,
// anchored at the current time for the uptime gauge.
func NewMetrics() *Metrics {
	m := &Metrics{start: time.Now(), queryRows: NewHistogram(RowBounds()),
		queueWait: NewHistogram(LatencyBounds())}
	for i := range m.latency {
		m.latency[i] = NewHistogram(LatencyBounds())
	}
	return m
}

type opCounters struct {
	nodes  int64
	rows   int64
	micros int64
}

type lastQuerySample struct {
	micros int64
	rows   int64
}

type strategyMetrics struct {
	queries atomic.Int64
	rows    atomic.Int64
	micros  atomic.Int64
}

// SessionOpened counts one session open (total + active gauge).
func (m *Metrics) SessionOpened() {
	m.sessionsOpened.Add(1)
	m.sessionsActive.Add(1)
}

// SessionClosed decrements the active-session gauge.
func (m *Metrics) SessionClosed() { m.sessionsActive.Add(-1) }

// AdmissionAdmitted counts one statement admitted through the gate:
// queued marks that it waited for a slot first, wait is the time it spent
// waiting (zero for an immediate grant — recorded in the histogram
// regardless, so the queue-wait distribution reflects every admitted
// statement, not only the unlucky ones). Pair with AdmissionReleased when
// the statement finishes.
func (m *Metrics) AdmissionAdmitted(queued bool, wait time.Duration) {
	m.admAdmitted.Add(1)
	if queued {
		m.admQueued.Add(1)
	}
	m.admInflight.Add(1)
	m.queueWait.Observe(wait.Seconds())
}

// AdmissionReleased returns one admitted statement's slot to the gauge.
func (m *Metrics) AdmissionReleased() { m.admInflight.Add(-1) }

// AdmissionRejected counts one statement rejected as overloaded (queue
// full or queue wait expired) after waiting for the given time.
func (m *Metrics) AdmissionRejected(wait time.Duration) {
	m.admRejected.Add(1)
	m.queueWait.Observe(wait.Seconds())
}

// QueryOutcome describes one evaluated statement for accounting: the
// strategy it is attributed to, whether the cost-based picker chose it,
// what it produced and how it ended. Both surfaces (tpserverd's handler
// and the REPL) build one of these per statement and feed it to
// ObserveQuery, so the accounting rules cannot drift between them.
type QueryOutcome struct {
	// Strategy is the physical strategy the statement is attributed to:
	// the planner's pick when a TP join was planned, the session's forced
	// setting otherwise (see EffectiveStrategy).
	Strategy engine.Strategy
	// AutoPick marks a planned join routed by the cost-based picker
	// (SET strategy = auto), counted in tpserverd_auto_strategy_total.
	AutoPick bool
	// RowsKind marks statements that produced a result relation; only
	// those update the per-strategy throughput counters and histograms
	// (SET and backslash commands are not workload).
	RowsKind bool
	Rows     int
	Elapsed  time.Duration
	Err      error
	// Plan carries the EXPLAIN [ANALYZE] tree, if the statement produced
	// one, for the per-operator aggregates.
	Plan *plan.Tree
}

// ObserveQuery folds one statement outcome into the counters. Safe for
// concurrent use.
func (m *Metrics) ObserveQuery(o QueryOutcome) {
	m.queriesServed.Add(1)
	m.execMicros.Add(o.Elapsed.Microseconds())
	if o.AutoPick && int(o.Strategy) < strategyCount {
		m.autoPicks[o.Strategy].Add(1)
	}
	if o.Err != nil {
		m.queryErrors.Add(1)
		if errors.Is(o.Err, context.DeadlineExceeded) || errors.Is(o.Err, context.Canceled) {
			m.queryTimeouts.Add(1)
		}
	} else {
		m.rowsReturned.Add(int64(o.Rows))
		if o.RowsKind {
			m.recordQuery(o.Strategy, o.Rows, o.Elapsed)
		}
	}
	if o.Plan != nil {
		m.recordAnalyze(o.Plan)
		// A timed-out ANALYZE is reported as a successful response with
		// the abort reason in the tree; keep it visible in the timeout
		// counter regardless, or the diagnostic queries users run when
		// investigating slowness would vanish from the metric.
		if o.Plan.Abort != "" {
			m.queryTimeouts.Add(1)
		}
	}
}

// EffectiveStrategy resolves the strategy a just-executed statement is
// attributed to: the planner's recorded pick when the statement planned a
// TP join, the session's forced physical setting otherwise (join-free
// queries still need a bucket; under auto that is the nominal NJ
// default).
func EffectiveStrategy(sess *plan.Session) engine.Strategy {
	if strat, _, ok := sess.PlannedJoin(); ok {
		return strat
	}
	strat, _ := sess.Strategy.Physical()
	return strat
}

// recordQuery attributes one executed query to its join strategy,
// updates the last-query gauges and buckets the latency and cardinality
// histograms.
func (m *Metrics) recordQuery(strategy engine.Strategy, rows int, elapsed time.Duration) {
	m.lastQuery.Store(&lastQuerySample{micros: elapsed.Microseconds(), rows: int64(rows)})
	m.queryRows.Observe(float64(rows))
	if int(strategy) >= strategyCount {
		return
	}
	sm := &m.perStrategy[strategy]
	sm.queries.Add(1)
	sm.rows.Add(int64(rows))
	sm.micros.Add(elapsed.Microseconds())
	m.latency[strategy].Observe(elapsed.Seconds())
}

// recordAnalyze folds one executed ANALYZE plan into the per-operator
// counters, keyed by operator kind (the first token of the node
// description, e.g. "TPJoin", "Scan").
func (m *Metrics) recordAnalyze(t *plan.Tree) {
	if t == nil || !t.Analyze || t.Root == nil {
		return
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	if m.perOp == nil {
		m.perOp = make(map[string]*opCounters)
	}
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		kind, _, _ := strings.Cut(n.Desc, " ")
		c := m.perOp[kind]
		if c == nil {
			c = &opCounters{}
			m.perOp[kind] = c
		}
		c.nodes++
		c.rows += n.Rows
		c.micros += n.TimeUS
		for _, k := range n.Children {
			walk(k)
		}
	}
	walk(t.Root)
}

// MetricsSnapshot is a point-in-time copy of the counters plus runtime
// gauges (uptime, goroutines, heap, GC pause total) read at snapshot
// time.
type MetricsSnapshot struct {
	SessionsOpened int64
	SessionsActive int64
	QueriesServed  int64
	QueryErrors    int64
	QueryTimeouts  int64
	RowsReturned   int64
	ExecMicros     int64

	AdmissionAdmitted int64
	AdmissionQueued   int64
	AdmissionRejected int64
	AdmissionInflight int64
	QueueWait         HistogramSnapshot

	LastQueryMicros int64
	LastQueryRows   int64

	UptimeSeconds  float64
	Goroutines     int64
	HeapInuseBytes int64
	GCPauseSeconds float64

	PerStrategy [strategyCount]StrategySnapshot
	AutoPicks   [strategyCount]int64
	Latency     [strategyCount]HistogramSnapshot
	QueryRows   HistogramSnapshot
	PerOperator map[string]OperatorSnapshot

	// PlanCache carries the EXECUTE plan hit and miss counters
	// (SetPlanCache).
	PlanCache plan.CacheStats
}

// OperatorSnapshot is the per-operator-kind slice of the ANALYZE
// counters.
type OperatorSnapshot struct {
	Nodes  int64
	Rows   int64
	Micros int64
}

// StrategySnapshot is the per-strategy slice of the counters.
type StrategySnapshot struct {
	Queries int64
	Rows    int64
	Micros  int64
}

// Snapshot copies the counters and reads the runtime gauges.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		SessionsOpened: m.sessionsOpened.Load(),
		SessionsActive: m.sessionsActive.Load(),
		QueriesServed:  m.queriesServed.Load(),
		QueryErrors:    m.queryErrors.Load(),
		QueryTimeouts:  m.queryTimeouts.Load(),
		RowsReturned:   m.rowsReturned.Load(),
		ExecMicros:     m.execMicros.Load(),
		UptimeSeconds:  time.Since(m.start).Seconds(),
		Goroutines:     int64(runtime.NumGoroutine()),
		QueryRows:      m.queryRows.Snapshot(),

		AdmissionAdmitted: m.admAdmitted.Load(),
		AdmissionQueued:   m.admQueued.Load(),
		AdmissionRejected: m.admRejected.Load(),
		AdmissionInflight: m.admInflight.Load(),
		QueueWait:         m.queueWait.Snapshot(),
	}
	if f := m.planCache.Load(); f != nil {
		s.PlanCache = (*f)()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapInuseBytes = int64(ms.HeapInuse)
	s.GCPauseSeconds = float64(ms.PauseTotalNs) / 1e9
	if lq := m.lastQuery.Load(); lq != nil {
		s.LastQueryMicros = lq.micros
		s.LastQueryRows = lq.rows
	}
	for i := range m.perStrategy {
		s.PerStrategy[i] = StrategySnapshot{
			Queries: m.perStrategy[i].queries.Load(),
			Rows:    m.perStrategy[i].rows.Load(),
			Micros:  m.perStrategy[i].micros.Load(),
		}
		s.AutoPicks[i] = m.autoPicks[i].Load()
		s.Latency[i] = m.latency[i].Snapshot()
	}
	m.opMu.Lock()
	if len(m.perOp) > 0 {
		s.PerOperator = make(map[string]OperatorSnapshot, len(m.perOp))
		for k, c := range m.perOp {
			s.PerOperator[k] = OperatorSnapshot{Nodes: c.nodes, Rows: c.rows, Micros: c.micros}
		}
	}
	m.opMu.Unlock()
	return s
}

// family writes one metric family's # HELP/# TYPE header. The text
// exposition format requires all samples of a family grouped behind its
// header, so Render emits strictly family by family.
func family(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// fnum renders a float sample value without exponent noise for integral
// values (Prometheus accepts both; plain decimals keep the output
// greppable).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes the full Prometheus text exposition (version 0.0.4):
// every counter and gauge with # HELP/# TYPE metadata, the per-strategy
// families, the latency/row-count histograms and the per-operator ANALYZE
// aggregates. This is the single render path behind the \metrics builtin
// and the HTTP /metrics endpoint.
func (s MetricsSnapshot) Render() string {
	var b strings.Builder
	gauge := func(name, help string, val string) {
		family(&b, name, "gauge", help)
		fmt.Fprintf(&b, "%s %s\n", name, val)
	}
	counter := func(name, help string, val string) {
		family(&b, name, "counter", help)
		fmt.Fprintf(&b, "%s %s\n", name, val)
	}
	gauge("tpserverd_uptime_seconds", "Seconds since the metrics collector started.", fnum(s.UptimeSeconds))
	gauge("tpserverd_go_goroutines", "Live goroutines in the process.", fmt.Sprint(s.Goroutines))
	gauge("tpserverd_go_heap_inuse_bytes", "Heap bytes in use (runtime.MemStats.HeapInuse).", fmt.Sprint(s.HeapInuseBytes))
	counter("tpserverd_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause seconds.", fnum(s.GCPauseSeconds))
	counter("tpserverd_sessions_opened_total", "Sessions opened since start.", fmt.Sprint(s.SessionsOpened))
	gauge("tpserverd_sessions_active", "Currently open sessions.", fmt.Sprint(s.SessionsActive))
	counter("tpserverd_queries_served_total", "Statements evaluated (including failed ones).", fmt.Sprint(s.QueriesServed))
	counter("tpserverd_query_errors_total", "Statements that returned an error.", fmt.Sprint(s.QueryErrors))
	counter("tpserverd_query_timeouts_total", "Statements aborted by deadline or cancellation.", fmt.Sprint(s.QueryTimeouts))
	counter("tpserverd_rows_returned_total", "Result rows returned to clients.", fmt.Sprint(s.RowsReturned))
	counter("tpserverd_exec_seconds_total", "Total statement execution wall time.", fnum(float64(s.ExecMicros)/1e6))
	counter("tpserverd_admission_admitted_total", "Statements granted a query slot by admission control.", fmt.Sprint(s.AdmissionAdmitted))
	counter("tpserverd_admission_queued_total", "Admitted statements that waited in the admission queue first.", fmt.Sprint(s.AdmissionQueued))
	counter("tpserverd_admission_rejected_total", "Statements rejected as overloaded (admission queue full or wait expired).", fmt.Sprint(s.AdmissionRejected))
	gauge("tpserverd_admission_inflight", "Statements currently holding a query slot.", fmt.Sprint(s.AdmissionInflight))
	family(&b, "tpserverd_admission_queue_wait_seconds", "histogram", "Time statements spent at the admission gate before a slot grant or rejection.")
	renderHistogram(&b, "tpserverd_admission_queue_wait_seconds", "", s.QueueWait)
	gauge("tpserverd_last_query_seconds", "Wall time of the most recent row-producing query.", fnum(float64(s.LastQueryMicros)/1e6))
	gauge("tpserverd_last_query_rows", "Row count of the most recent row-producing query.", fmt.Sprint(s.LastQueryRows))
	counter("tpserverd_plan_cache_hits_total", "EXECUTE statements planned from the prepared statement's memo (stats profiling and strategy pick skipped).", fmt.Sprint(s.PlanCache.Hits))
	counter("tpserverd_plan_cache_misses_total", "EXECUTE statements planned fresh (no matching memo).", fmt.Sprint(s.PlanCache.Misses))

	labels := make([]string, strategyCount)
	for i := range labels {
		labels[i] = engine.Strategy(i).String()
	}
	family(&b, "tpserverd_strategy_queries_total", "counter", "Row-producing queries per attributed join strategy.")
	for i, l := range labels {
		fmt.Fprintf(&b, "tpserverd_strategy_queries_total{strategy=%q} %d\n", l, s.PerStrategy[i].Queries)
	}
	family(&b, "tpserverd_strategy_rows_total", "counter", "Result rows per attributed join strategy.")
	for i, l := range labels {
		fmt.Fprintf(&b, "tpserverd_strategy_rows_total{strategy=%q} %d\n", l, s.PerStrategy[i].Rows)
	}
	family(&b, "tpserverd_strategy_exec_seconds_total", "counter", "Execution wall time per attributed join strategy.")
	for i, l := range labels {
		fmt.Fprintf(&b, "tpserverd_strategy_exec_seconds_total{strategy=%q} %g\n", l, float64(s.PerStrategy[i].Micros)/1e6)
	}
	family(&b, "tpserverd_auto_strategy_total", "counter", "TP joins the cost-based picker (SET strategy = auto) routed to each physical strategy.")
	for i, l := range labels {
		fmt.Fprintf(&b, "tpserverd_auto_strategy_total{strategy=%q} %d\n", l, s.AutoPicks[i])
	}

	family(&b, "tpserverd_query_seconds", "histogram", "Latency of row-producing queries per attributed join strategy.")
	for i, l := range labels {
		renderHistogram(&b, "tpserverd_query_seconds", fmt.Sprintf("strategy=%q,", l), s.Latency[i])
	}
	family(&b, "tpserverd_query_rows", "histogram", "Result-row cardinality of row-producing queries.")
	renderHistogram(&b, "tpserverd_query_rows", "", s.QueryRows)

	if len(s.PerOperator) > 0 {
		ops := make([]string, 0, len(s.PerOperator))
		for k := range s.PerOperator {
			ops = append(ops, k)
		}
		sort.Strings(ops)
		family(&b, "tpserverd_analyze_nodes_total", "counter", "EXPLAIN ANALYZE plan nodes executed, per operator kind.")
		for _, k := range ops {
			fmt.Fprintf(&b, "tpserverd_analyze_nodes_total{op=%q} %d\n", k, s.PerOperator[k].Nodes)
		}
		family(&b, "tpserverd_analyze_rows_total", "counter", "Rows produced under EXPLAIN ANALYZE, per operator kind.")
		for _, k := range ops {
			fmt.Fprintf(&b, "tpserverd_analyze_rows_total{op=%q} %d\n", k, s.PerOperator[k].Rows)
		}
		family(&b, "tpserverd_analyze_seconds_total", "counter", "Inclusive operator wall time under EXPLAIN ANALYZE, per operator kind.")
		for _, k := range ops {
			fmt.Fprintf(&b, "tpserverd_analyze_seconds_total{op=%q} %g\n", k, float64(s.PerOperator[k].Micros)/1e6)
		}
	}
	return b.String()
}

// renderHistogram writes one histogram series (cumulative le buckets,
// _sum and _count) with an optional leading label prefix like
// `strategy="NJ",`.
func renderHistogram(b *strings.Builder, name, labelPrefix string, h HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labelPrefix, fnum(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, h.Count)
	if labelPrefix != "" {
		labelPrefix = "{" + strings.TrimSuffix(labelPrefix, ",") + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelPrefix, fnum(h.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelPrefix, h.Count)
}
