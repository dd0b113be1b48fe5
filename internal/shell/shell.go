// Package shell implements the session logic behind cmd/tpquery and
// cmd/tpserverd: statement dispatch (SELECT / EXPLAIN / SET), backslash
// commands for catalog management, and result rendering. The dispatch and
// execution core (Core) is shared between the interactive REPL and the
// query server so the two surfaces cannot drift; Shell wraps a Core with
// a text renderer for the REPL.
package shell

import (
	"context"
	"fmt"
	"io"
	"time"

	"tpjoin/internal/catalog"
	"tpjoin/internal/obs"
	"tpjoin/internal/plan"
)

// Shell is one interactive session: an evaluation core and an output
// sink.
type Shell struct {
	Core *Core
	Out  io.Writer
}

// Catalog returns the session's catalog.
func (sh *Shell) Catalog() *catalog.Catalog { return sh.Core.Catalog }

// Session returns the session's planner settings.
func (sh *Shell) Session() *plan.Session { return sh.Core.Session }

// New returns a shell with the paper's example relations (Fig. 1a)
// preloaded and a process-local metrics collector behind \metrics: the
// REPL sees the same counters, latency histograms and runtime gauges for
// its own statements that tpserverd exposes for its sessions, rendered
// through the identical obs path.
func New(out io.Writer) *Shell {
	cat := catalog.New()
	PreloadFig1a(cat)
	core := NewCore(cat)
	core.Metrics = obs.NewMetrics()
	// A process-local plan cache: the REPL gets the same PREPARE/EXECUTE
	// fast path (and the same tpserverd_plan_cache_* families in \metrics)
	// as a server session.
	core.PlanCache = plan.NewCache(plan.DefaultCacheSize)
	core.Metrics.SetPlanCache(core.PlanCache.Stats)
	return &Shell{Core: core, Out: out}
}

// Execute runs one input line (SQL statement or backslash command) and
// reports whether the session should terminate.
func (sh *Shell) Execute(line string) (quit bool) {
	start := time.Now()
	res, err := sh.Core.Eval(context.Background(), line)
	sh.observe(res, err, time.Since(start))
	if err != nil {
		if IsUsageError(err) {
			fmt.Fprintln(sh.Out, err.Error())
		} else {
			fmt.Fprintln(sh.Out, "error:", err)
		}
		return false
	}
	if res.Kind == KindQuit {
		return true
	}
	RenderResult(sh.Out, res)
	return false
}

// observe folds one evaluated line into the REPL's local metrics
// collector, with the same attribution rules (obs.QueryOutcome) the
// server applies to its sessions.
func (sh *Shell) observe(res Result, err error, elapsed time.Duration) {
	m := sh.Core.Metrics
	if m == nil {
		return
	}
	_, auto, planned := sh.Core.Session.PlannedJoin()
	o := obs.QueryOutcome{
		Strategy: obs.EffectiveStrategy(sh.Core.Session),
		AutoPick: planned && auto,
		RowsKind: res.Kind == KindRows,
		Elapsed:  elapsed,
		Err:      err,
		Plan:     res.Plan,
	}
	if o.RowsKind {
		o.Rows = res.Rel.Len()
	}
	m.ObserveQuery(o)
}

const helpText = `statements:
  SELECT ... FROM r TP [LEFT|RIGHT|FULL|ANTI|INNER] JOIN s ON ...
         [WHERE ...] [ORDER BY ...] [LIMIT n]
                                fact attributes are text and compare to
                                quoted strings; numbers compare only to
                                the pseudo-columns P, Tstart and Tend
  SELECT ... FROM r TP UNION|INTERSECT|EXCEPT s
  CREATE TABLE name AS SELECT ...
  PREPARE name AS SELECT ...    parse and pin a statement for repeated
                                execution; ? or $1 placeholders may stand
                                for WHERE literals, bound per EXECUTE
  EXECUTE name [(v, ...)]       run a prepared statement with the values
                                bound; planning (stats, strategy pick) is
                                served from the shared plan cache until a
                                referenced relation changes
  DEALLOCATE name               discard a prepared statement
  EXPLAIN SELECT ...            show the operator tree and join strategy
  EXPLAIN [ANALYZE] EXECUTE name [(v, ...)]
                                like EXPLAIN SELECT, plus a first line
                                "plan: cached|fresh" reporting whether the
                                plan cache supplied the plan
  EXPLAIN ANALYZE SELECT ...    execute and show per-operator rows, wall
                                time and strategy stage counters; a query
                                aborted by its timeout reports the abort
                                reason per node
  SET strategy = auto|nj|ta|pnj|pta
                                auto (the default) picks the cheapest
                                strategy per join from catalog statistics;
                                nj/ta force a sequential pipeline, pnj/pta
                                their partitioned-parallel executors.
                                EXPLAIN shows the choice, per-strategy
                                cost estimates and the input stats used
  SET ta_nested_loop = on|off
  SET join_workers = <n>        PNJ/PTA workers (0 = one per CPU)
  SET calibration = '<file>'|default
                                load a cost-model calibration emitted by
                                tpbench -calibrate (default: the
                                checked-in measured constants)
  SET memory_budget = <bytes>|off|default
                                per-query memory budget (kb/mb/gb
                                suffixes ok); an over-budget query aborts
                                with error class "budget". default =
                                the server's -memory-budget
commands:
  \d                      list relations
  \prepared               list this session's prepared statements
  \stats <name>           relation statistics (tuples, per-column distinct
                          values and group sizes, temporal span/overlap) —
                          what the auto strategy picker uses
  \load <name> <file>     load CSV (base relations; a \N field is NULL)
  \save <name> <file>     save CSV (NULL as \N)
  \loadb <name> <file>    load binary .tpr (derived relations, full lineage)
  \saveb <name> <file>    save binary .tpr
  \gen webkit|meteo <n>   generate synthetic workload
  \drop <name>            remove a relation
  \metrics                Prometheus-style counters, per-strategy latency
                          histograms and runtime gauges — the REPL shows
                          its own statements, tpserverd its sessions; the
                          server also serves the same text on HTTP
                          GET /metrics (-http)
  \q                      quit
`
