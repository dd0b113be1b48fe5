package shell

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tpjoin/internal/catalog"
	"tpjoin/internal/dataset"
	"tpjoin/internal/engine"
	"tpjoin/internal/interval"
	"tpjoin/internal/mem"
	"tpjoin/internal/obs"
	"tpjoin/internal/plan"
	"tpjoin/internal/sql"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// ResultKind classifies what a statement produced.
type ResultKind int

const (
	// KindNone: blank input, nothing to render.
	KindNone ResultKind = iota
	// KindQuit: the session asked to terminate (\q).
	KindQuit
	// KindMessage: Text carries a status message or listing.
	KindMessage
	// KindRows: Rel carries a result relation.
	KindRows
	// KindExplain: Text carries an EXPLAIN plan rendering.
	KindExplain
)

// Result is the structured outcome of evaluating one input line. The REPL
// renders it as text; the server encodes it on the wire.
type Result struct {
	Kind ResultKind
	Text string
	Rel  *tp.Relation
	// Plan carries the structured EXPLAIN [ANALYZE] tree when Kind is
	// KindExplain: per-operator rows, wall time and stage counters under
	// ANALYZE. Text is its canonical rendering; the server additionally
	// puts Plan on the wire as structured fields.
	Plan *plan.Tree
	// PlanCache reports how an EXECUTE (or EXPLAIN EXECUTE) got its plan:
	// "hit" (the prepared statement's memo skipped stats profiling and
	// the cost-model pick) or "miss" (planned fresh, memo replaced). Empty
	// for every other statement. The server forwards it on the wire;
	// tpcli -v prints it.
	PlanCache string
}

// Core is the statement dispatch/execution engine shared by the
// interactive REPL (cmd/tpquery) and the query server (cmd/tpserverd):
// one session's settings bound to a (possibly shared) catalog. Core
// itself is not safe for concurrent use — each session owns one Core —
// but distinct Cores may share a catalog, which is concurrency-safe.
type Core struct {
	Catalog *catalog.Catalog
	Session *plan.Session
	// Metrics, when non-nil, backs the \metrics builtin on this surface:
	// the REPL wires a process-local collector here (Shell.Execute records
	// every statement into it), while server sessions leave it nil — the
	// server intercepts \metrics itself and renders its shared collector
	// through the same obs Render path.
	Metrics *obs.Metrics
	// PlanCache, when non-nil, counts EXECUTE plan hits and misses:
	// tpserverd attaches one server-wide Cache to every session Core, the
	// REPL a process-local one. Nil counts nothing.
	PlanCache *plan.Cache
	// prepared is the session's PREPARE'd statements by name. Names are
	// session-local (like PostgreSQL's), and so is the planning memo each
	// statement keeps for its next EXECUTE.
	prepared map[string]*plan.Prepared
}

// NewCore returns a session core over cat with default settings.
func NewCore(cat *catalog.Catalog) *Core {
	return &Core{Catalog: cat, Session: &plan.Session{}, prepared: make(map[string]*plan.Prepared)}
}

// PreloadFig1a registers the paper's running-example relations a and b
// (Fig. 1a) into cat.
func PreloadFig1a(cat *catalog.Catalog) {
	a := tp.NewRelation("a", "Name", "Loc")
	a.Append(tp.Strings("Ann", "ZAK"), interval.New(2, 8), 0.7)
	a.Append(tp.Strings("Jim", "WEN"), interval.New(7, 10), 0.8)
	b := tp.NewRelation("b", "Hotel", "Loc")
	b.Append(tp.Strings("hotel3", "SOR"), interval.New(1, 4), 0.9)
	b.Append(tp.Strings("hotel2", "ZAK"), interval.New(5, 8), 0.6)
	b.Append(tp.Strings("hotel1", "ZAK"), interval.New(4, 6), 0.7)
	// The demo relations always satisfy the constraint; ignore error.
	_ = cat.Register(a)
	_ = cat.Register(b)
}

// Eval executes one input line (SQL statement or backslash command) under
// ctx and returns a structured result. Errors are returned, never
// rendered; cancellation or deadline expiry during query execution
// surfaces as ctx.Err().
//
// Eval contains panics: the engine panics on some invalid cross-relation
// states — e.g. joining a stale CREATE TABLE AS snapshot against a
// regenerated workload with conflicting base-event probabilities
// (tp.MergeProbs), or evaluating a derived lineage whose base events were
// dropped (prob.BatchEvaluator). Those are per-query data problems, not
// session corruption, so every surface (the interactive REPL exactly like
// the server) converts them into that query's error and lives on.
func (c *Core) Eval(ctx context.Context, line string) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, panicError{v: r}
		}
	}()
	// Clear the session's planned-join record before dispatch: inputs
	// that never reach plan.Build (SET, backslash commands, parse
	// errors) must not leak the previous statement's strategy pick into
	// per-query accounting.
	c.Session.ResetPlanned()
	line = strings.TrimSpace(line)
	if line == "" {
		return Result{Kind: KindNone}, nil
	}
	if strings.HasPrefix(line, `\`) {
		return c.command(line)
	}
	// Attach the session's memory budget unless the surface already did
	// (the server threads its own gauge, folding in the -memory-budget
	// default; the REPL relies on this attach).
	if b := c.Session.EffectiveMemBudget(0); b > 0 && mem.FromContext(ctx) == nil {
		ctx = mem.WithGauge(ctx, mem.NewGauge(b))
	}
	return c.statement(ctx, line)
}

// panicError wraps a recovered query panic; see Core.Eval and
// IsPanicError.
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("query panic: %v", e.v) }

// IsPanicError reports whether err is a query panic converted by
// Core.Eval's containment. The server logs these — a panic is a data
// problem worth an operator's attention even though the session
// survives it.
func IsPanicError(err error) bool {
	var p panicError
	return errors.As(err, &p)
}

// usageError marks errors whose text is a usage line (or unknown-command
// notice) that the REPL prints verbatim, without the "error:" prefix.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// IsUsageError reports whether err is a usage line or unknown-command
// notice, which every surface renders verbatim rather than with an
// "error:" prefix. The server forwards this distinction on the wire so
// remote rendering stays byte-identical to the REPL.
func IsUsageError(err error) bool {
	var u usageError
	return errors.As(err, &u)
}

func (c *Core) command(line string) (Result, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\q`, `\quit`:
		return Result{Kind: KindQuit}, nil
	case `\d`:
		var b strings.Builder
		for _, n := range c.Catalog.Names() {
			rel, err := c.Catalog.Lookup(n)
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "  %s(%s) — %d tuples\n", n, strings.Join(rel.Attrs, ", "), rel.Len())
		}
		return Result{Kind: KindMessage, Text: b.String()}, nil
	case `\load`:
		if len(fields) != 3 {
			return Result{}, usagef(`usage: \load <name> <file.csv>`)
		}
		rel, err := catalog.LoadCSV(fields[2], fields[1])
		if err != nil {
			return Result{}, err
		}
		if err := c.Catalog.Register(rel); err != nil {
			return Result{}, err
		}
		return message("loaded %s: %d tuples\n", fields[1], rel.Len()), nil
	case `\save`:
		if len(fields) != 3 {
			return Result{}, usagef(`usage: \save <name> <file.csv>`)
		}
		rel, err := c.Catalog.Lookup(fields[1])
		if err != nil {
			return Result{}, err
		}
		if err := catalog.SaveCSV(fields[2], rel); err != nil {
			return Result{}, err
		}
		return message("saved %s to %s\n", fields[1], fields[2]), nil
	case `\saveb`:
		// Binary format: round-trips derived relations with full lineage.
		if len(fields) != 3 {
			return Result{}, usagef(`usage: \saveb <name> <file.tpr>`)
		}
		rel, err := c.Catalog.Lookup(fields[1])
		if err != nil {
			return Result{}, err
		}
		if err := catalog.SaveBinary(fields[2], rel); err != nil {
			return Result{}, err
		}
		return message("saved %s to %s (binary)\n", fields[1], fields[2]), nil
	case `\loadb`:
		if len(fields) != 3 {
			return Result{}, usagef(`usage: \loadb <name> <file.tpr>`)
		}
		rel, err := catalog.LoadBinary(fields[2])
		if err != nil {
			return Result{}, err
		}
		rel.Name = fields[1]
		if err := c.Catalog.Register(rel); err != nil {
			return Result{}, err
		}
		return message("loaded %s: %d tuples\n", fields[1], rel.Len()), nil
	case `\gen`:
		if len(fields) != 3 {
			return Result{}, usagef(`usage: \gen webkit|meteo <n>`)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return Result{}, fmt.Errorf("bad size %s", fields[2])
		}
		var r, s *tp.Relation
		switch fields[1] {
		case "webkit":
			r, s = dataset.Webkit(n, 1)
		case "meteo":
			r, s = dataset.Meteo(n, 1)
		default:
			return Result{}, fmt.Errorf("unknown workload %s", fields[1])
		}
		_ = c.Catalog.Register(r)
		_ = c.Catalog.Register(s)
		return message("generated r (%d tuples) and s (%d tuples); join on r.Key = s.Key\n",
			r.Len(), s.Len()), nil
	case `\drop`:
		if len(fields) != 2 {
			return Result{}, usagef(`usage: \drop <name>`)
		}
		if !c.Catalog.Drop(fields[1]) {
			return Result{}, fmt.Errorf("no relation %s", fields[1])
		}
		return message("dropped %s\n", fields[1]), nil
	case `\stats`:
		// The statistics the cost-based strategy picker consumes,
		// computed lazily and cached on the catalog.
		if len(fields) != 2 {
			return Result{}, usagef(`usage: \stats <name>`)
		}
		rel, err := c.Catalog.Lookup(fields[1])
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: KindMessage, Text: stats.Of(rel).Render(fields[1])}, nil
	case `\prepared`:
		// This session's prepared statements, sorted by name.
		names := make([]string, 0, len(c.prepared))
		for n := range c.prepared {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			p := c.prepared[n]
			fmt.Fprintf(&b, "  %s (%d parameter(s)) — %s\n", n, p.NumParams, p.Text)
		}
		if len(names) == 0 {
			b.WriteString("  (none)\n")
		}
		return Result{Kind: KindMessage, Text: b.String()}, nil
	case `\metrics`:
		// The same enriched snapshot and Render path as tpserverd's HTTP
		// /metrics endpoint; on the REPL the collector is process-local.
		if c.Metrics == nil {
			return Result{}, usagef(`\metrics is not available on this surface`)
		}
		return Result{Kind: KindMessage, Text: c.Metrics.Snapshot().Render()}, nil
	case `\help`, `\?`:
		return Result{Kind: KindMessage, Text: helpText}, nil
	default:
		return Result{}, usagef("unknown command %s (try \\help)", fields[0])
	}
}

func message(format string, args ...any) Result {
	return Result{Kind: KindMessage, Text: fmt.Sprintf(format, args...)}
}

// lookupPrepared resolves a session-local prepared-statement name.
func (c *Core) lookupPrepared(name string) (*plan.Prepared, error) {
	prep, ok := c.prepared[name]
	if !ok {
		return nil, fmt.Errorf("no prepared statement %q (PREPARE it first; \\prepared lists this session's)", name)
	}
	return prep, nil
}

func (c *Core) statement(ctx context.Context, line string) (Result, error) {
	st, err := sql.Parse(line)
	if err != nil {
		return Result{}, err
	}
	switch s := st.(type) {
	case *sql.Set:
		if err := c.Session.ApplySet(s); err != nil {
			return Result{}, err
		}
		return Result{Kind: KindMessage, Text: "ok\n"}, nil
	case *sql.Explain:
		if s.Exec != nil {
			prep, err := c.lookupPrepared(s.Exec.Name)
			if err != nil {
				return Result{}, err
			}
			tree, err := plan.ExplainPrepared(ctx, c.PlanCache, c.Catalog, c.Session, prep, s.Exec.Params, s.Analyze)
			if err != nil {
				return Result{}, err
			}
			res := Result{Kind: KindExplain, Text: tree.Render(), Plan: tree}
			if tree.PlanSource == "cached" {
				res.PlanCache = "hit"
			} else {
				res.PlanCache = "miss"
			}
			return res, nil
		}
		tree, err := plan.ExplainTree(ctx, s.Query, c.Catalog, c.Session, s.Analyze)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: KindExplain, Text: tree.Render(), Plan: tree}, nil
	case *sql.Prepare:
		if _, ok := c.prepared[s.Name]; ok {
			return Result{}, fmt.Errorf("prepared statement %q already exists (DEALLOCATE it first)", s.Name)
		}
		if c.prepared == nil {
			// Cores built as struct literals (tests) skip NewCore.
			c.prepared = make(map[string]*plan.Prepared)
		}
		c.prepared[s.Name] = plan.NewPrepared(s)
		return message("prepared %s (%d parameter(s))\n", s.Name, s.NumParams), nil
	case *sql.Execute:
		prep, err := c.lookupPrepared(s.Name)
		if err != nil {
			return Result{}, err
		}
		op, hit, err := plan.PlanPrepared(c.PlanCache, c.Catalog, c.Session, prep, s.Params)
		if err != nil {
			return Result{}, err
		}
		rel, err := engine.RunContext(ctx, op, "result")
		if err != nil {
			return Result{}, err
		}
		res := Result{Kind: KindRows, Rel: rel, PlanCache: "miss"}
		if hit {
			res.PlanCache = "hit"
		}
		return res, nil
	case *sql.Deallocate:
		if _, ok := c.prepared[s.Name]; !ok {
			return Result{}, fmt.Errorf("no prepared statement %q", s.Name)
		}
		delete(c.prepared, s.Name)
		return message("deallocated %s\n", s.Name), nil
	case *sql.CreateTableAs:
		op, err := plan.Build(s.Query, c.Catalog, c.Session)
		if err != nil {
			return Result{}, err
		}
		rel, err := engine.RunContext(ctx, op, s.Name)
		if err != nil {
			return Result{}, err
		}
		if err := c.Catalog.Register(rel); err != nil {
			return Result{}, err
		}
		return message("created %s: %d tuples\n", s.Name, rel.Len()), nil
	case *sql.Select:
		op, err := plan.Build(s, c.Catalog, c.Session)
		if err != nil {
			return Result{}, err
		}
		rel, err := engine.RunContext(ctx, op, "result")
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: KindRows, Rel: rel}, nil
	default:
		return Result{}, fmt.Errorf("unsupported statement %T", st)
	}
}

// RenderHeader, RenderRow and RenderFooter are the single definition of
// the tabular result format. Every surface — the local REPL
// (RenderTable) and the remote client (server.RenderResponse) — renders
// through these three functions, so their output cannot drift apart.

// RenderHeader writes the column header: the fact attributes plus the
// λ | T | p columns.
func RenderHeader(w io.Writer, attrs []string) {
	fmt.Fprintf(w, "%s | λ | T | p\n", strings.Join(attrs, " | "))
}

// RenderRow writes one tuple line from its rendered components.
func RenderRow(w io.Writer, fact []string, lineage string, iv interval.Interval, prob float64) {
	fmt.Fprintf(w, "%s | %s | %s | %.4g\n", strings.Join(fact, " | "), lineage, iv, prob)
}

// RenderFooter writes the row-count trailer.
func RenderFooter(w io.Writer, n int) {
	fmt.Fprintf(w, "(%d rows)\n", n)
}

// RenderTable writes rel in the shell's tabular format.
func RenderTable(w io.Writer, rel *tp.Relation) {
	RenderHeader(w, rel.Attrs)
	for _, t := range rel.Tuples {
		parts := make([]string, len(t.Fact))
		for i, v := range t.Fact {
			parts[i] = v.String()
		}
		RenderRow(w, parts, fmt.Sprintf("%s", t.Lineage), t.T, t.Prob)
	}
	RenderFooter(w, rel.Len())
}

// RenderResult writes res to w exactly as the interactive shell would.
func RenderResult(w io.Writer, res Result) {
	switch res.Kind {
	case KindMessage, KindExplain:
		io.WriteString(w, res.Text)
	case KindRows:
		RenderTable(w, res.Rel)
	}
}
