// Command tpserverd is the concurrent TP-SQL query server: it serves the
// shell dialect (see cmd/tpquery) to many remote sessions at once over a
// newline-delimited JSON protocol, with one shared catalog and
// per-session SET settings.
//
//	tpserverd [-addr localhost:7654] [-http ""] [-timeout 30s]
//	          [-max-timeout 5m] [-slow-query 1s]
//	          [-max-inflight 0] [-queue-depth 0] [-queue-wait 1s]
//	          [-memory-budget 0] [-drain-timeout 30s]
//	          [-gen webkit:1000] [-gen meteo:1000] [-no-preload] [-quiet]
//
// The default bind is loopback-only: the dialect includes \load, \save,
// \loadb and \saveb, which read and write files on the server host with
// the server's privileges, so exposing the port to untrusted networks is
// equivalent to granting filesystem access. Bind a non-loopback address
// (-addr :7654) only behind authentication or inside a trusted network.
// The same caveat applies to -http, which additionally exposes pprof.
//
// Every connection is an isolated session: `SET strategy = ta` on one
// session never affects another, while CREATE TABLE ... AS, \load and
// \drop act on the shared catalog and are immediately visible to all
// sessions. `PREPARE name AS SELECT ...` / `EXECUTE name [(v, ...)]` /
// `DEALLOCATE name` manage session-local prepared statements, each of
// which memoizes its planning (statistics profiling, cost-model strategy
// pick) for its session until a referenced relation or a plan-relevant
// SET setting changes; tpserverd_plan_cache_{hits,misses}_total count the
// outcomes across all sessions. Each query runs under a context deadline
// (-timeout, overridable per request up to -max-timeout) that also
// interrupts the blocking TA/PNJ join strategies mid-Open; `\metrics` returns
// Prometheus-style counters (queries served, rows returned, timeouts,
// active sessions, per-strategy throughput, latency histograms, runtime
// gauges and per-operator EXPLAIN ANALYZE aggregates).
//
// Observability: -http starts the admin HTTP endpoint on its own
// listener — GET /metrics (Prometheus text exposition, identical to
// \metrics), GET /healthz (liveness), GET /readyz (readiness) and
// net/http/pprof under /debug/pprof/. Every evaluated statement gets a
// monotonic query ID (echoed in the response, printed by tpcli -v) and
// one structured JSON audit record on stderr — query_id, session,
// statement, strategy, rows, elapsed, error class — logged at WARN when
// the query ran longer than -slow-query (or failed), at INFO otherwise;
// -quiet suppresses both the session log and the audit log.
//
// Resilience: -max-inflight bounds concurrent query execution with a
// semaphore plus a bounded wait queue (-queue-depth seats, -queue-wait
// per-statement budget); statements the gate sheds are rejected before
// planning with the retryable error class "overloaded", and /readyz
// degrades to 503 while the queue is saturated. -memory-budget caps each
// query's estimated working memory (overridable per session with
// `SET memory_budget = 64mb|off`); a query that exceeds it aborts with
// error class "budget" while the server keeps serving. The first SIGTERM
// or SIGINT drains gracefully — the listener closes, /readyz flips to
// 503, in-flight statements finish up to -drain-timeout — and a second
// signal (or the timeout) forces immediate cancellation. The TPFAULT
// environment variable arms chaos-testing failpoints (see internal/fault;
// e.g. TPFAULT='server.accept=error' — never set it in production).
//
// By default the paper's Fig. 1a relations a and b are preloaded; -gen
// additionally registers synthetic workloads under w_r/w_s (webkit) and
// m_r/m_s (meteo). Connect with cmd/tpcli or the internal/client library.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/dataset"
	"tpjoin/internal/fault"
	"tpjoin/internal/obs"
	"tpjoin/internal/plan"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
	"tpjoin/internal/tp"
)

type genFlags []string

func (g *genFlags) String() string     { return strings.Join(*g, ",") }
func (g *genFlags) Set(v string) error { *g = append(*g, v); return nil }

func main() {
	var (
		addr       = flag.String("addr", "localhost:7654", "TCP listen address (loopback by default: sessions can read/write server-side files via \\load|\\save)")
		httpAddr   = flag.String("http", "", "admin HTTP listen address for /metrics, /healthz, /readyz and /debug/pprof (empty = disabled; same trust caveats as -addr)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on per-request timeouts (0 = uncapped)")
		slowQuery  = flag.Duration("slow-query", time.Second, "promote audit-log records of queries at least this slow to WARN (0 = never)")
		noPreload  = flag.Bool("no-preload", false, "skip preloading the paper's Fig. 1a relations")
		quiet      = flag.Bool("quiet", false, "suppress per-session logging and the structured query log")

		maxInflight  = flag.Int("max-inflight", 0, "admission control: max concurrently executing statements (0 = unlimited)")
		queueDepth   = flag.Int("queue-depth", 0, "admission control: statements allowed to wait for a slot before rejection")
		queueWait    = flag.Duration("queue-wait", time.Second, "admission control: max time a queued statement waits for a slot")
		memBudget    = flag.String("memory-budget", "", "default per-query memory budget, e.g. 256mb or 256MB (empty = unlimited; sessions override with SET memory_budget)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget: how long the first SIGTERM lets in-flight statements finish")
		gens         genFlags
	)
	flag.Var(&gens, "gen", "preload a synthetic workload, e.g. webkit:1000 or meteo:500 (repeatable)")
	flag.Parse()

	cat := catalog.New()
	if !*noPreload {
		shell.PreloadFig1a(cat)
	}
	for _, g := range gens {
		if err := preloadWorkload(cat, g); err != nil {
			log.Fatalf("tpserverd: -gen %s: %v", g, err)
		}
	}

	cfg := server.Config{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
	}
	if *memBudget != "" {
		b, err := plan.ParseByteSize(*memBudget)
		if err != nil {
			log.Fatalf("tpserverd: -memory-budget %s: want a positive byte count (kb/mb/gb suffixes ok)", *memBudget)
		}
		cfg.MemoryBudget = b
	}
	if spec := os.Getenv("TPFAULT"); spec != "" {
		// Chaos-testing failpoints; a typo in a point name arms nothing.
		if err := fault.Arm(spec); err != nil {
			log.Fatalf("tpserverd: TPFAULT: %v", err)
		}
		log.Printf("tpserverd: TPFAULT armed: %s", spec)
	}
	if !*quiet {
		cfg.Logf = log.New(os.Stderr, "tpserverd: ", log.LstdFlags).Printf
		// The structured query/audit log: one JSON record per statement
		// on stderr, distinguishable from the session log by its JSON
		// framing, WARN for slow or failed queries.
		cfg.QueryLog = obs.NewQueryLog(slog.NewJSONHandler(os.Stderr, nil), *slowQuery)
	}
	srv := server.New(cat, cfg)

	// Two-stage shutdown: the first signal drains gracefully (stop
	// accepting, let in-flight statements finish up to -drain-timeout),
	// a second signal — or the drain budget expiring — forces the PR 3
	// cancellation path immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		log.Printf("tpserverd: draining (up to %v; signal again to force)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		go func() {
			<-sig
			log.Println("tpserverd: forcing shutdown")
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("tpserverd: drain: %v", err)
		}
		close(drained)
	}()

	if *httpAddr != "" {
		// The admin endpoint serves on its own listener so a melted query
		// port never takes the diagnostics down with it. Bind before the
		// query listener: /healthz is expected up first, /readyz flips
		// once ListenAndServe below is accepting.
		aln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("tpserverd: -http %s: %v", *httpAddr, err)
		}
		go func() {
			if err := srv.ServeAdmin(aln); err != nil {
				log.Fatalf("tpserverd: admin http: %v", err)
			}
		}()
	}

	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("tpserverd: %v", err)
	}
	// Serve returns nil as soon as draining starts; exiting then would
	// cut the very statements the drain exists to finish. Hold the
	// process open until Shutdown (or its forced fallback) completes.
	<-drained
	log.Println("tpserverd: shut down")
}

// preloadWorkload parses "<workload>:<n>" and registers the generated
// relation pair under workload-prefixed names.
func preloadWorkload(cat *catalog.Catalog, spec string) error {
	kind, size, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("want <workload>:<n>")
	}
	n, err := strconv.Atoi(size)
	if err != nil || n <= 0 {
		return fmt.Errorf("bad size %q", size)
	}
	var r, s *tp.Relation
	var prefix string
	switch kind {
	case "webkit":
		r, s = dataset.Webkit(n, 1)
		prefix = "w_"
	case "meteo":
		r, s = dataset.Meteo(n, 1)
		prefix = "m_"
	default:
		return fmt.Errorf("unknown workload %q (want webkit or meteo)", kind)
	}
	r.Name, s.Name = prefix+"r", prefix+"s"
	if err := cat.Register(r); err != nil {
		return err
	}
	return cat.Register(s)
}
