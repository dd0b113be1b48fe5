// Package plan turns parsed SQL statements (internal/sql) into executable
// operator trees (internal/engine): name resolution against the catalog,
// column binding, θ-condition construction, physical join-strategy
// selection — forced per session like the paper's PostgreSQL GUC
// (SET strategy = nj|ta|pnj|pta), or chosen per join by the cost model
// over catalog statistics (SET strategy = auto, the default; see cost.go)
// priced by a measured calibration (calibration.go) — and EXPLAIN
// rendering.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/catalog"
	"tpjoin/internal/engine"
	"tpjoin/internal/par"
	"tpjoin/internal/sql"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// MaxJoinWorkers caps SET join_workers. PNJ over-partitions by 4× the
// worker count and spawns one goroutine per partition, so an unbounded
// value would let a single (possibly remote, on tpserverd) session
// allocate partitions and goroutines without limit; beyond a few times
// the CPU count extra workers only add overhead anyway. The executor
// clamps to the same bound, so the two layers cannot drift apart.
const MaxJoinWorkers = par.MaxWorkers

// Strategy is the session's join-strategy setting: StrategyAuto (the zero
// value and therefore every surface's default), under which the cost
// model (EstimateJoin) picks the cheapest physical strategy per join from
// catalog statistics, or Strategy(e)+1, which forces engine strategy e
// for every join.
type Strategy uint8

// The SET strategy values.
const (
	StrategyAuto Strategy = 0
	StrategyNJ            = Strategy(engine.StrategyNJ) + 1
	StrategyTA            = Strategy(engine.StrategyTA) + 1
	StrategyPNJ           = Strategy(engine.StrategyPNJ) + 1
	StrategyPTA           = Strategy(engine.StrategyPTA) + 1
)

func (s Strategy) String() string {
	if s == StrategyAuto {
		return "auto"
	}
	return engine.Strategy(s - 1).String()
}

// Physical returns the forced engine strategy; forced is false for
// StrategyAuto (the returned strategy is then the nominal NJ default).
func (s Strategy) Physical() (strat engine.Strategy, forced bool) {
	if s == StrategyAuto {
		return engine.StrategyNJ, false
	}
	return engine.Strategy(s - 1), true
}

// Session carries the per-connection settings that influence planning.
type Session struct {
	// Strategy selects the physical TP join implementation, or
	// StrategyAuto (the default) for cost-based per-join selection.
	Strategy Strategy
	// TANestedLoop forces the nested-loop plan for the TA baseline
	// (the plan PostgreSQL chose in the paper's evaluation).
	TANestedLoop bool
	// Workers is the parallel-executor worker count for PNJ and PTA
	// (SET join_workers); 0 means one worker per CPU (GOMAXPROCS).
	Workers int
	// Calib overrides the cost model's measured calibration
	// (SET calibration = '<file>'); nil means the checked-in default.
	Calib *Calibration
	// MemBudget is the per-query memory budget in bytes
	// (SET memory_budget): 0 inherits the surface default (tpserverd's
	// -memory-budget; unlimited on the REPL), negative disables the
	// budget explicitly (SET memory_budget = off), positive is the
	// budget. The executor charges it at its allocation choke points and
	// aborts the query with a budget error on overrun.
	MemBudget int64

	// planned records the TP join of the session's most recent Build:
	// the physical strategy it got and whether the cost model (rather
	// than a forced SET strategy) chose it. The server reads it to
	// attribute per-strategy and auto-pick metrics.
	planned struct {
		strat engine.Strategy
		auto  bool
		join  bool
	}
}

// PlannedJoin reports the physical strategy of the TP join planned by the
// session's most recent statement and whether the cost-based picker chose
// it; ok is false when that statement planned no TP join.
func (s *Session) PlannedJoin() (strat engine.Strategy, auto, ok bool) {
	return s.planned.strat, s.planned.auto, s.planned.join
}

// ResetPlanned clears the planned-join record. Surfaces call it at the
// start of every evaluated input line, so statements that never reach
// Build (SET, backslash commands, parse errors) cannot leak the previous
// statement's pick into per-query accounting.
func (s *Session) ResetPlanned() { s.planned.join = false }

// EffectiveMemBudget resolves the session's memory budget against the
// surface default def (tpserverd's -memory-budget; 0 on the REPL): an
// unset session budget inherits def, an explicit `SET memory_budget =
// off` (negative) disables the budget even when the server configures a
// default, and the result is 0 for "no budget" or the positive byte
// count.
func (s *Session) EffectiveMemBudget(def int64) int64 {
	switch {
	case s.MemBudget < 0:
		return 0
	case s.MemBudget > 0:
		return s.MemBudget
	default:
		return max(def, 0)
	}
}

// ApplySet updates the session from a SET statement. Setting names and
// values are case-insensitive (calibration file paths excepted).
// Supported settings: strategy = auto|nj|ta|pnj|pta,
// ta_nested_loop = on|off, join_workers = <n>,
// calibration = '<file.json>'|default,
// memory_budget = <bytes>[kb|mb|gb]|off|default.
func (s *Session) ApplySet(st *sql.Set) error {
	name := strings.ToLower(st.Name)
	value := strings.ToLower(st.Value)
	switch name {
	case "strategy":
		for v := StrategyAuto; v <= Strategy(engine.NumStrategies); v++ {
			if strings.EqualFold(st.Value, v.String()) {
				s.Strategy = v
				return nil
			}
		}
		return fmt.Errorf("plan: unknown strategy %q (want auto, nj, ta, pnj or pta)", value)
	case "join_workers":
		n, err := strconv.Atoi(st.Value)
		if err != nil || n < 0 || n > MaxJoinWorkers {
			return fmt.Errorf("plan: join_workers wants an integer in [0,%d], got %q", MaxJoinWorkers, st.Value)
		}
		s.Workers = n
	case "ta_nested_loop":
		switch value {
		case "on", "true", "1":
			s.TANestedLoop = true
		case "off", "false", "0":
			s.TANestedLoop = false
		default:
			return fmt.Errorf("plan: ta_nested_loop wants on or off (also true/false, 1/0), got %q", value)
		}
	case "calibration":
		// The file path is taken verbatim (SET calibration = 'cal.json');
		// the keyword "default" restores the checked-in calibration.
		if value == "default" {
			s.Calib = nil
			return nil
		}
		cal, err := LoadCalibration(st.Value)
		if err != nil {
			return fmt.Errorf("plan: calibration: %w", err)
		}
		s.Calib = cal
	case "memory_budget":
		switch value {
		case "default":
			s.MemBudget = 0
		case "off", "unlimited":
			s.MemBudget = -1
		default:
			n, err := ParseByteSize(value)
			if err != nil {
				return fmt.Errorf("plan: memory_budget wants a positive byte count (kb/mb/gb suffixes ok), off or default, got %q", st.Value)
			}
			s.MemBudget = n
		}
	default:
		return fmt.Errorf("plan: unknown setting %q (want strategy, join_workers, ta_nested_loop, calibration or memory_budget)", name)
	}
	return nil
}

// ParseByteSize parses a positive byte count with an optional binary
// suffix: "65536", "64kb", "256mb", "2gb" (also the one-letter forms).
// Shared by SET memory_budget and tpserverd's -memory-budget flag, which
// must accept byte-identical inputs — so the normalization (case folding,
// whitespace trimming: "256MB", "64 kb") lives here, not in the callers.
func ParseByteSize(v string) (int64, error) {
	v = strings.ToLower(strings.TrimSpace(v))
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30}, {"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}} {
		if strings.HasSuffix(v, suf.s) {
			v, mult = strings.TrimSuffix(v, suf.s), suf.m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 || n > (1<<62)/mult {
		return 0, fmt.Errorf("out of range")
	}
	return n * mult, nil
}

// binding maps column references to indexes of the combined output fact.
type binding struct {
	// tables in fact order: each with its binding name and attrs.
	parts []boundTable
}

type boundTable struct {
	name   string // alias or table name
	attrs  []string
	offset int
}

func (b *binding) arity() int {
	n := 0
	for _, p := range b.parts {
		n += len(p.attrs)
	}
	return n
}

func (b *binding) attrs() []string {
	var out []string
	for _, p := range b.parts {
		out = append(out, p.attrs...)
	}
	return out
}

// resolve finds the fact index of a column reference, enforcing SQL
// ambiguity rules.
func (b *binding) resolve(c sql.ColRef) (int, error) {
	found := -1
	for _, p := range b.parts {
		if c.Table != "" && !strings.EqualFold(c.Table, p.name) {
			continue
		}
		for i, a := range p.attrs {
			if strings.EqualFold(a, c.Column) {
				if found >= 0 {
					return 0, fmt.Errorf("plan: ambiguous column %q", c)
				}
				found = p.offset + i
			}
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", c)
	}
	return found, nil
}

// Build compiles a SELECT into an operator tree. TP joins get their
// physical strategy here: the session's forced SET strategy, or — under
// SET strategy = auto, the default — the cost model's cheapest estimate
// over the catalog statistics of the join inputs (see EstimateJoin).
func Build(sel *sql.Select, cat *catalog.Catalog, sess *Session) (engine.Operator, error) {
	return build(sel, cat, sess, nil, nil, nil)
}

// build is Build plus the prepared-statement machinery: params binds
// placeholder literals (EXECUTE), and prev, the memo of the statement's
// last build, supplies the memoized estimate in place of the statistics
// profiling and cost-model estimation — the expensive half of planning —
// when the relations build looks up and the session settings match it.
// A non-nil m records what this build planned against; a plain SELECT
// passes nil and records nothing.
func build(sel *sql.Select, cat *catalog.Catalog, sess *Session, params []sql.Literal, prev, m *memo) (engine.Operator, error) {
	sess.ResetPlanned()
	left, err := cat.Lookup(sel.From.Name)
	if err != nil {
		return nil, err
	}
	m.snapshot(left)
	b := &binding{parts: []boundTable{{name: sel.From.Binding(), attrs: left.Attrs}}}
	var op engine.Operator = engine.NewScan(left)

	if sel.SetOp != nil {
		right, err := cat.Lookup(sel.SetOp.Right.Name)
		if err != nil {
			return nil, err
		}
		m.snapshot(right)
		if right.Arity() != left.Arity() {
			return nil, fmt.Errorf("plan: %s and %s are not union-compatible (%d vs %d attributes)",
				sel.From.Name, sel.SetOp.Right.Name, left.Arity(), right.Arity())
		}
		var kind engine.SetOpKind
		switch sel.SetOp.Kind {
		case sql.SetUnion:
			kind = engine.SetUnion
		case sql.SetIntersect:
			kind = engine.SetIntersect
		default:
			kind = engine.SetExcept
		}
		op = engine.NewTPSetOp(kind, op, engine.NewScan(right))
	}

	if sel.Join != nil {
		right, err := cat.Lookup(sel.Join.Right.Name)
		if err != nil {
			return nil, err
		}
		m.snapshot(right)
		lb := &binding{parts: []boundTable{{name: sel.From.Binding(), attrs: left.Attrs}}}
		rb := &binding{parts: []boundTable{{name: sel.Join.Right.Binding(), attrs: right.Attrs}}}
		theta, err := buildTheta(sel.Join.On, lb, rb)
		if err != nil {
			return nil, err
		}
		cfg := align.Config{NestedLoop: sess.TANestedLoop}
		// Score the strategies on the inputs' catalog statistics. When a
		// set operation precedes the join, the left statistics describe
		// its base relation rather than the set-op output — an accepted
		// approximation (set ops only fragment time, they do not change
		// the key distribution materially). A memo that matches the
		// relations just looked up replays its estimate instead.
		strategy, forced := sess.Strategy.Physical()
		var est Estimate
		if prev.matches(m) {
			est = *prev.est
		} else {
			est = EstimateJoin(sel.From.Binding(), stats.Of(left),
				sel.Join.Right.Binding(), stats.Of(right), theta, sess.Workers, sess.TANestedLoop, sess.Calib)
		}
		if m != nil {
			memoized := est
			m.est = &memoized
		}
		if !forced {
			strategy = est.Chosen
		}
		join := engine.NewTPJoin(sel.Join.Op, op, engine.NewScan(right), theta, strategy, cfg)
		join.SetWorkers(sess.Workers)
		join.SetAutoPick(est.autoPickRecord(!forced))
		sess.planned.strat, sess.planned.auto, sess.planned.join = strategy, !forced, true
		op = join
		if sel.Join.Op == tp.OpAnti {
			// Output schema stays the left table's.
		} else {
			b.parts = append(b.parts, boundTable{
				name:   sel.Join.Right.Binding(),
				attrs:  right.Attrs,
				offset: len(left.Attrs),
			})
		}
	}

	if len(sel.Where) > 0 {
		pred, err := buildPredicate(sel.Where, b, params)
		if err != nil {
			return nil, err
		}
		op = engine.NewFilter(op, pred)
	}

	var cols []int // the projection's binding indexes; nil when SELECT *
	if !sel.Star {
		cols = make([]int, len(sel.Projs))
		names := make([]string, len(sel.Projs))
		for i, c := range sel.Projs {
			idx, err := b.resolve(c)
			if err != nil {
				return nil, err
			}
			cols[i] = idx
			names[i] = c.Column
		}
		if sel.Distinct {
			op, err = engine.NewLineageDistinct(op, cols, names)
		} else {
			op, err = engine.NewProject(op, cols, names)
		}
		if err != nil {
			return nil, err
		}
	} else if sel.Distinct {
		cols := make([]int, b.arity())
		for i := range cols {
			cols[i] = i
		}
		op, err = engine.NewLineageDistinct(op, cols, b.attrs())
		if err != nil {
			return nil, err
		}
	}

	if len(sel.OrderBy) > 0 {
		less, err := buildOrder(sel.OrderBy, op.Attrs(), b, cols)
		if err != nil {
			return nil, err
		}
		op = engine.NewSort(op, less)
	}

	if sel.Limit >= 0 {
		op = engine.NewLimit(op, sel.Limit)
	}
	return op, nil
}

// buildOrder compiles ORDER BY keys over the sorted stage's output. An
// unqualified key names an output attribute or one of the Tstart/Tend/P
// pseudo-columns; a qualified key (a.Loc) resolves through the
// statement's binding b, as WHERE does, and then through the
// projection's column list cols when there is one.
func buildOrder(keys []sql.OrderKey, attrs []string, b *binding, cols []int) (engine.TupleLess, error) {
	type cKey struct {
		idx    int
		pseudo int
		desc   bool
	}
	cks := make([]cKey, len(keys))
	for i, k := range keys {
		ck := cKey{idx: -1, desc: k.Desc, pseudo: pseudoColumn(k.Col)}
		switch {
		case k.Col.Table != "":
			idx, err := b.resolve(k.Col)
			if err != nil {
				return nil, err
			}
			if cols != nil {
				idx = slices.Index(cols, idx)
			}
			if idx < 0 {
				return nil, fmt.Errorf("plan: ORDER BY column %q is not in the select list", k.Col)
			}
			ck.idx = idx
		case ck.pseudo == pseudoNone:
			for j, a := range attrs {
				if strings.EqualFold(a, k.Col.Column) {
					if ck.idx >= 0 {
						return nil, fmt.Errorf("plan: ambiguous ORDER BY column %q", k.Col)
					}
					ck.idx = j
				}
			}
			if ck.idx < 0 {
				return nil, fmt.Errorf("plan: unknown ORDER BY column %q", k.Col)
			}
		}
		cks[i] = ck
	}
	return func(a, b tp.Tuple) bool {
		for _, ck := range cks {
			var c int
			switch ck.pseudo {
			case pseudoProb:
				c = cmpFloat(a.Prob, b.Prob)
			case pseudoTstart:
				c = cmpFloat(float64(a.T.Start), float64(b.T.Start))
			case pseudoTend:
				c = cmpFloat(float64(a.T.End), float64(b.T.End))
			default:
				c = a.Fact[ck.idx].Compare(b.Fact[ck.idx])
			}
			if ck.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}, nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// buildTheta converts ON equalities into an EquiTheta, resolving each side
// against the proper table (either order is accepted per conjunct).
func buildTheta(on []sql.OnEq, lb, rb *binding) (tp.EquiTheta, error) {
	eq := tp.EquiTheta{}
	for _, c := range on {
		li, lerr := lb.resolve(c.L)
		ri, rerr := rb.resolve(c.R)
		if lerr == nil && rerr == nil {
			eq.RCols = append(eq.RCols, li)
			eq.SCols = append(eq.SCols, ri)
			continue
		}
		// Try the swapped orientation: right.col = left.col.
		li2, lerr2 := lb.resolve(c.R)
		ri2, rerr2 := rb.resolve(c.L)
		if lerr2 == nil && rerr2 == nil {
			eq.RCols = append(eq.RCols, li2)
			eq.SCols = append(eq.SCols, ri2)
			continue
		}
		if lerr != nil {
			return tp.EquiTheta{}, lerr
		}
		return tp.EquiTheta{}, rerr
	}
	if len(eq.RCols) == 0 {
		return tp.EquiTheta{}, fmt.Errorf("plan: join needs at least one ON equality")
	}
	return eq, nil
}

// pseudo-columns available in WHERE besides the fact attributes: the
// tuple probability and the interval endpoints.
const (
	pseudoNone = iota
	pseudoProb
	pseudoTstart
	pseudoTend
)

func pseudoColumn(c sql.ColRef) int {
	if c.Table != "" {
		return pseudoNone
	}
	switch strings.ToLower(c.Column) {
	case "p", "prob":
		return pseudoProb
	case "tstart":
		return pseudoTstart
	case "tend":
		return pseudoTend
	default:
		return pseudoNone
	}
}

// buildPredicate compiles WHERE conjuncts. params binds placeholder
// literals (Literal.Param > 0) positionally — the EXECUTE path; a plain
// SELECT never contains placeholders (the parser rejects them outside
// PREPARE), so params is nil there.
func buildPredicate(conds []sql.Condition, b *binding, params []sql.Literal) (engine.Predicate, error) {
	type compiled struct {
		idx    int
		pseudo int
		cond   sql.Condition
	}
	cs := make([]compiled, len(conds))
	for i, c := range conds {
		if p := c.Lit.Param; p > 0 && !c.IsNull {
			if p > len(params) {
				return nil, fmt.Errorf("plan: unbound parameter $%d", p)
			}
			// Substitute the bound value; everything below sees a plain
			// constant, so a parameter behaves exactly like its inline
			// literal (the differential harness pins this).
			c.Lit = params[p-1]
		}
		idx, err := b.resolve(c.Col)
		if err != nil {
			// Fact attributes shadow pseudo-columns; only unresolvable
			// names fall through to P / Tstart / Tend.
			if ps := pseudoColumn(c.Col); ps != pseudoNone {
				if c.IsNull {
					return nil, fmt.Errorf("plan: %s cannot be NULL", c.Col)
				}
				if c.Lit.IsString {
					return nil, fmt.Errorf("plan: %s compares to numbers, got %s", c.Col, c.Lit)
				}
				cs[i] = compiled{pseudo: ps, cond: c}
				continue
			}
			return nil, err
		}
		if !c.IsNull && !c.Lit.IsString {
			return nil, fmt.Errorf("plan: %s holds text; compare it to a quoted string, got %s", c.Col, c.Lit)
		}
		cs[i] = compiled{idx: idx, cond: c}
	}
	cmpOK := func(op string, cmp int) bool {
		switch op {
		case "=":
			return cmp == 0
		case "<>":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		case ">=":
			return cmp >= 0
		default:
			return false
		}
	}
	return func(t tp.Tuple) bool {
		for _, c := range cs {
			if c.pseudo != pseudoNone {
				var val float64
				switch c.pseudo {
				case pseudoProb:
					val = t.Prob
				case pseudoTstart:
					val = float64(t.T.Start)
				case pseudoTend:
					val = float64(t.T.End)
				}
				cmp := 0
				switch {
				case val < c.cond.Lit.Num:
					cmp = -1
				case val > c.cond.Lit.Num:
					cmp = 1
				}
				if !cmpOK(c.cond.Op, cmp) {
					return false
				}
				continue
			}
			v := t.Fact[c.idx]
			if c.cond.IsNull {
				if v.IsNull() != !c.cond.Negate {
					return false
				}
				continue
			}
			// SQL: NULL compares to nothing.
			if v.IsNull() || !cmpOK(c.cond.Op, strings.Compare(v.AsString(), c.cond.Lit.Str)) {
				return false
			}
		}
		return true
	}, nil
}

// Node is one operator of an EXPLAIN [ANALYZE] plan tree. Desc is the
// operator description (the line EXPLAIN prints); the counters are only
// populated under ANALYZE. The JSON shape is the structured EXPLAIN
// representation the query server puts on the wire.
type Node struct {
	Desc string `json:"desc"`
	// Rows is the number of tuples the operator produced; TimeUS the
	// inclusive wall time (operator + inputs) in microseconds; OpenUS
	// the part of it spent in Open, where blocking operators do their
	// work.
	Rows   int64 `json:"rows"`
	TimeUS int64 `json:"time_us"`
	OpenUS int64 `json:"open_us,omitempty"`
	// Stages are strategy-specific detail counters of a TP join: window
	// pipeline stages under NJ, alignment counters under TA, partition
	// counters under PNJ.
	Stages []Stage `json:"stages,omitempty"`
	// Pick is the planner's cost-model record for a TP join planned from
	// the SQL surface: the per-strategy cost estimates, the input
	// statistics they were derived from, and whether the cost-based
	// picker (SET strategy = auto) made the choice.
	Pick *PickInfo `json:"pick,omitempty"`
	// Abort is the context error that interrupted this operator's
	// blocking Open, if any.
	Abort    string  `json:"abort,omitempty"`
	Children []*Node `json:"children,omitempty"`
}

// Stage is one strategy-specific detail counter of an ANALYZE'd TP join.
type Stage struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	Batches int64  `json:"batches,omitempty"`
}

// PickInfo is the structured cost-model record of one TP join: the model
// cost per applicable strategy and the input statistics used. Auto is
// true when the picker chose the strategy, false when SET strategy forced
// it (the estimates are still reported for comparison).
type PickInfo struct {
	Auto   bool       `json:"auto,omitempty"`
	Costs  []PickCost `json:"costs"`
	Inputs []string   `json:"inputs,omitempty"`
}

// PickCost is one strategy's model cost estimate, in model milliseconds.
type PickCost struct {
	Strategy string  `json:"strategy"`
	Millis   float64 `json:"millis"`
}

// Tree is a complete EXPLAIN [ANALYZE] result: the operator tree plus,
// under ANALYZE, whole-query totals and the abort reason when the run was
// cancelled mid-flight.
type Tree struct {
	Root    *Node `json:"root"`
	Analyze bool  `json:"analyze,omitempty"`
	// TotalUS is the wall time of the ANALYZE execution; AllocBytes the
	// approximate heap allocation during it (process-wide delta, so
	// concurrent queries inflate it).
	TotalUS    int64 `json:"total_us,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Abort is the context error that aborted the ANALYZE execution
	// (timeout or cancellation); the per-operator counters then reflect
	// the work done up to the abort.
	Abort string `json:"abort,omitempty"`
	// QueryID is the server-assigned query identity, stamped by tpserverd
	// after execution so the ANALYZE trailer can be joined against the
	// structured query log and Response.QueryID. Zero on surfaces without
	// query IDs (the in-process REPL), and then omitted from the
	// rendering.
	QueryID uint64 `json:"query_id,omitempty"`
	// PlanSource reports where an EXPLAIN [ANALYZE] EXECUTE got its plan:
	// "cached" (the prepared statement's memo supplied the stats/pick) or
	// "fresh" (planned from scratch, memo replaced). Empty for plain
	// EXPLAIN SELECT, which has no memo.
	PlanSource string `json:"plan_source,omitempty"`
}

// Explain renders the operator tree of a SELECT, annotated with the join
// strategy. With analyze, the query is executed and per-operator rows and
// wall times are included.
func Explain(sel *sql.Select, cat *catalog.Catalog, sess *Session, analyze bool) (string, error) {
	return ExplainContext(context.Background(), sel, cat, sess, analyze)
}

// ExplainContext is Explain with a context governing the ANALYZE
// execution; see ExplainTree for the cancellation semantics.
func ExplainContext(ctx context.Context, sel *sql.Select, cat *catalog.Catalog, sess *Session, analyze bool) (string, error) {
	t, err := ExplainTree(ctx, sel, cat, sess, analyze)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// ExplainTree compiles (and, with analyze, executes) a SELECT and returns
// the structured plan tree. Under ANALYZE every operator is wrapped in an
// accounting iterator (engine.Instrument) before execution, so the tree
// carries actual rows, wall time and strategy-level stage counters; a
// context cancellation or deadline during the run is not an error — the
// tree is returned with the counters accumulated up to the abort and the
// abort reason on Tree.Abort (and on the Node whose blocking Open was
// interrupted). Without analyze the query is not executed.
func ExplainTree(ctx context.Context, sel *sql.Select, cat *catalog.Catalog, sess *Session, analyze bool) (*Tree, error) {
	op, err := Build(sel, cat, sess)
	if err != nil {
		return nil, err
	}
	return explainOp(ctx, op, analyze)
}

// ExplainPrepared is ExplainTree for EXECUTE: the prepared statement is
// planned through its memo (PlanPrepared), the tree is annotated with
// the plan source ("cached" or "fresh"), and under ANALYZE the bound
// query is executed like any other.
func ExplainPrepared(ctx context.Context, cache *Cache, cat *catalog.Catalog, sess *Session, p *Prepared, params []sql.Literal, analyze bool) (*Tree, error) {
	op, hit, err := PlanPrepared(cache, cat, sess, p, params)
	if err != nil {
		return nil, err
	}
	t, err := explainOp(ctx, op, analyze)
	if err != nil {
		return nil, err
	}
	if hit {
		t.PlanSource = "cached"
	} else {
		t.PlanSource = "fresh"
	}
	return t, nil
}

// explainOp instruments (under analyze), executes and renders one built
// operator tree; the shared tail of ExplainTree and ExplainPrepared.
func explainOp(ctx context.Context, op engine.Operator, analyze bool) (*Tree, error) {
	t := &Tree{Analyze: analyze}
	if analyze {
		root := engine.Instrument(op)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, runErr := engine.RunContext(ctx, root, "explain")
		t.TotalUS = time.Since(start).Microseconds()
		runtime.ReadMemStats(&after)
		t.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
		if runErr != nil {
			if !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
				return nil, runErr
			}
			t.Abort = runErr.Error()
		}
		op = root
	}
	t.Root = buildNode(op, analyze)
	return t, nil
}

// buildNode converts one (possibly Instrumented) operator into its plan
// node, recursing over the children.
func buildNode(op engine.Operator, analyze bool) *Node {
	inner := op
	inst, _ := op.(*engine.Instrumented)
	if inst != nil {
		inner = inst.Inner()
	}
	n := &Node{}
	switch o := inner.(type) {
	case *engine.Scan:
		n.Desc = fmt.Sprintf("Scan %s (%d tuples)", o.Relation().Name, o.Relation().Len())
	case *engine.Filter:
		n.Desc = "Filter"
	case *engine.Project:
		n.Desc = fmt.Sprintf("Project (%s)", strings.Join(inner.Attrs(), ", "))
	case *engine.Limit:
		n.Desc = "Limit"
	case *engine.Sort:
		n.Desc = "Sort"
	case *engine.TPJoin:
		n.Desc = fmt.Sprintf("TPJoin [%s] strategy=%s", joinName(o), o.Strategy())
		if o.Strategy().Parallel() {
			if w := o.Workers(); w > 0 {
				n.Desc += fmt.Sprintf(" workers=%d", w)
			} else {
				n.Desc += " workers=auto"
			}
		}
		if p := o.AutoPick(); p != nil {
			if p.Auto {
				n.Desc += " (auto)"
			}
			n.Pick = &PickInfo{Auto: p.Auto, Inputs: p.Inputs}
			for s := engine.Strategy(0); s < engine.NumStrategies; s++ {
				if c := p.Costs[s]; !math.IsInf(c, 0) && !math.IsNaN(c) {
					n.Pick.Costs = append(n.Pick.Costs,
						PickCost{Strategy: s.String(), Millis: c / 1e6})
				}
			}
		}
		if analyze {
			for _, st := range o.Stages() {
				n.Stages = append(n.Stages, Stage{Name: st.Name, Count: st.Count, Batches: st.Batches})
			}
			if err := o.AbortErr(); err != nil {
				n.Abort = err.Error()
			}
		}
	case *engine.TPSetOp:
		n.Desc = fmt.Sprintf("TPSetOp [%s]", o.Kind())
	case *engine.LineageDistinct:
		n.Desc = fmt.Sprintf("LineageDistinct (%s)", strings.Join(inner.Attrs(), ", "))
	default:
		// A node kind without a description still renders its subtree:
		// the children below come from the accessors, not from this switch.
		n.Desc = fmt.Sprintf("%T", inner)
	}
	if inst != nil { // under ANALYZE every node is instrumented
		st := inst.OpStats()
		n.Rows = st.Rows
		n.TimeUS = st.WallNanos / 1e3
		n.OpenUS = st.OpenNanos / 1e3
	}
	for _, k := range engine.Children(inner) {
		if k != nil {
			n.Children = append(n.Children, buildNode(k, analyze))
		}
	}
	return n
}

// Render writes the tree in EXPLAIN's indented text form; ANALYZE trees
// include the actual rows/time columns, per-join stage lines and the
// whole-query trailer.
func (t *Tree) Render() string {
	var b strings.Builder
	if t.PlanSource != "" {
		fmt.Fprintf(&b, "plan: %s\n", t.PlanSource)
	}
	renderNode(&b, t.Root, 0, t.Analyze)
	if t.Analyze {
		fmt.Fprintf(&b, "total: time=%.3fms alloc=%dKB",
			float64(t.TotalUS)/1e3, t.AllocBytes/1024)
		if t.QueryID != 0 {
			fmt.Fprintf(&b, " query_id=%d", t.QueryID)
		}
		b.WriteByte('\n')
		if t.Abort != "" {
			fmt.Fprintf(&b, "aborted: %s\n", t.Abort)
		}
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int, analyze bool) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(n.Desc)
	if analyze {
		fmt.Fprintf(b, "  rows=%d time=%.3fms", n.Rows, float64(n.TimeUS)/1e3)
		if n.OpenUS > 0 {
			fmt.Fprintf(b, " open=%.3fms", float64(n.OpenUS)/1e3)
		}
		if n.Abort != "" {
			fmt.Fprintf(b, " (aborted: %s)", n.Abort)
		}
	}
	b.WriteByte('\n')
	if n.Pick != nil {
		fmt.Fprintf(b, "%s  cost:", indent)
		for _, c := range n.Pick.Costs {
			fmt.Fprintf(b, " %s=%.3gms", c.Strategy, c.Millis)
		}
		b.WriteByte('\n')
		for _, in := range n.Pick.Inputs {
			fmt.Fprintf(b, "%s  stats %s\n", indent, in)
		}
	}
	for _, st := range n.Stages {
		fmt.Fprintf(b, "%s  stage %s: %d", indent, st.Name, st.Count)
		if st.Batches > 0 {
			fmt.Fprintf(b, " (batches=%d)", st.Batches)
		}
		b.WriteByte('\n')
	}
	for _, k := range n.Children {
		renderNode(b, k, depth+1, analyze)
	}
}

func joinName(j *engine.TPJoin) string { return j.Op().String() }
