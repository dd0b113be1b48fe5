// Prepared statements: PREPARE/EXECUTE and the memoization of planning
// work. A Prepared statement pins the parsed AST (no re-lex, no re-parse
// per EXECUTE) and memoizes the expensive half of Build — the statistics
// profiling and cost-model estimation behind the auto strategy picker —
// for the next EXECUTE, keyed by every plan-relevant session setting and
// checked against each referenced relation's identity and tp.Stamp — the
// Stamp the statistics memo checks — so a catalog mutation of any
// referenced relation forces a re-plan.
package plan

import (
	"fmt"
	"slices"
	"sync/atomic"
	"weak"

	"tpjoin/internal/catalog"
	"tpjoin/internal/engine"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

// Prepared is one prepared statement: the parsed SELECT body of a
// PREPARE, pinned for repeated EXECUTE, plus the planning memo of its
// last EXECUTE. A Prepared belongs to one session (names are
// session-local, like PostgreSQL's) and is not safe for concurrent use:
// the memo is read and replaced without a lock.
type Prepared struct {
	// Name is the session-local statement name.
	Name string
	// Text is the canonical rendering of the SELECT (sql.Select.String),
	// which normalizes whitespace, keyword case and placeholder style.
	Text string
	// Query is the parsed body; placeholder literals carry their 1-based
	// parameter index.
	Query *sql.Select
	// NumParams is how many parameters an EXECUTE must supply.
	NumParams int

	memo *memo
}

// NewPrepared pins a parsed PREPARE statement for execution.
func NewPrepared(p *sql.Prepare) *Prepared {
	return &Prepared{Name: p.Name, Text: p.Query.String(), Query: p.Query, NumParams: p.NumParams}
}

// bindCheck validates the EXECUTE-supplied parameter count.
func (p *Prepared) bindCheck(params []sql.Literal) error {
	if len(params) != p.NumParams {
		return fmt.Errorf("plan: prepared statement %q wants %d parameter(s), got %d",
			p.Name, p.NumParams, len(params))
	}
	return nil
}

// relSnap records the identity and Stamp of one relation a plan was
// built against, in lookup order; a prepared statement looks up the same
// names every time, so the names need no recording. The pointer is weak —
// the memo must not keep replaced relations alive — and weak pointers
// compare equal only when made from the same relation, so a same-name
// re-registration misses even if the new relation matches the old Stamp.
type relSnap struct {
	rel   weak.Pointer[tp.Relation]
	stamp tp.Stamp
}

// settings are the session settings that change a plan: the forced
// strategy, the TA plan form, the worker count the estimates were priced
// for, and the calibration that priced them. The calibration is held by
// pointer, which keeps it alive, so a later calibration cannot reuse its
// address and pass for it. Parameter values are deliberately absent: they
// bind per EXECUTE and do not move the strategy pick. MemBudget is absent
// too — it gates execution, not planning.
type settings struct {
	strategy   Strategy
	nestedLoop bool
	workers    int
	calib      *Calibration
}

// memo is what one build planned against and produced: the session
// settings, a snapshot of every relation it looked up, and the strategy
// estimate of the statement's TP join (nil when it plans none).
type memo struct {
	under settings
	rels  []relSnap
	est   *Estimate
}

// snapshot appends rel's snapshot; a nil m records nothing.
func (m *memo) snapshot(rel *tp.Relation) {
	if m == nil {
		return
	}
	m.rels = append(m.rels, relSnap{weak.Make(rel), rel.Stamp()})
}

// matches reports whether m, the memo of an earlier build, was planned
// under the same settings against the same relations at the same Stamps
// as cur. A nil m or cur matches nothing.
func (m *memo) matches(cur *memo) bool {
	return m != nil && cur != nil && m.under == cur.under && slices.Equal(m.rels, cur.rels)
}

// Cache counts how EXECUTE statements got their plans, as the
// tpserverd_plan_cache_{hits,misses}_total families. The memo itself
// lives on each Prepared; one Cache is shared by every session of a
// surface. Safe for concurrent use; the zero value is ready.
type Cache struct {
	hits, misses atomic.Int64
}

// NewCache returns an empty Cache. The argument is ignored; it remains so
// that e2ebench, which compiles against NewCache(int), keeps building.
func NewCache(int) *Cache { return new(Cache) }

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Hits, Misses int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// PlanPrepared compiles a prepared statement with params bound and counts
// the outcome in cache (nil counts nothing). It reports whether the plan
// reused p's memo: a hit skips statistics profiling and cost-model
// estimation entirely and re-binds only the cheap operator construction;
// parse was already skipped by PREPARE. A miss replaces the memo.
func PlanPrepared(cache *Cache, cat *catalog.Catalog, sess *Session, p *Prepared, params []sql.Literal) (op engine.Operator, cached bool, err error) {
	if err := p.bindCheck(params); err != nil {
		return nil, false, err
	}
	m := &memo{under: settings{sess.Strategy, sess.TANestedLoop, sess.Workers, sess.Calib}}
	op, err = build(p.Query, cat, sess, params, p.memo, m)
	if err != nil {
		return nil, false, err
	}
	cached = p.memo.matches(m)
	p.memo = m
	if cache != nil {
		if cached {
			cache.hits.Add(1)
		} else {
			cache.misses.Add(1)
		}
	}
	return op, cached, nil
}
