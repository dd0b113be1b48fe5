// Plan cache: PREPARE/EXECUTE and the server-wide memoization of
// planning work. A Prepared statement pins the parsed AST (no re-lex, no
// re-parse per EXECUTE); the Cache additionally memoizes the expensive
// half of Build — the statistics profiling and cost-model estimation
// behind the auto strategy picker — keyed by the normalized statement
// text plus every plan-relevant session setting, and invalidated by each
// referenced relation's identity and tp.Stamp — the Stamp the statistics
// memo checks — so a catalog mutation of any referenced relation forces a
// re-plan while untouched shapes keep their pick.
package plan

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"weak"

	"tpjoin/internal/catalog"
	"tpjoin/internal/engine"
	"tpjoin/internal/sql"
	"tpjoin/internal/tp"
)

// DefaultCacheSize is the plan-cache capacity surfaces use unless
// configured otherwise (tpserverd -plan-cache). Entries are a few hundred
// bytes each — the cap bounds pinned weak references and LRU bookkeeping,
// not result data.
const DefaultCacheSize = 256

// Prepared is one prepared statement: the parsed SELECT body of a
// PREPARE, pinned for repeated EXECUTE. Sessions own their prepared maps
// (names are session-local, like PostgreSQL's); the planning work is
// shared across sessions through the Cache.
type Prepared struct {
	// Name is the session-local statement name.
	Name string
	// Text is the canonical rendering of the SELECT (sql.Select.String),
	// which normalizes whitespace, keyword case and placeholder style —
	// the statement-text component of the cache key.
	Text string
	// Query is the parsed body; placeholder literals carry their 1-based
	// parameter index.
	Query *sql.Select
	// NumParams is how many parameters an EXECUTE must supply.
	NumParams int
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

// relSnap records the identity and Stamp of one relation a cached plan
// was built against. The pointer is weak — the cache must not keep
// replaced relations alive — and identity is checked against a fresh
// catalog lookup, so a same-name re-registration invalidates even if the
// new relation happens to match the old Stamp.
type relSnap struct {
	name  string
	rel   weak.Pointer[tp.Relation]
	stamp tp.Stamp
}

// Entry is one cached plan: the memoized strategy estimate of the
// statement's TP join (nil when it plans none) plus the snapshots of
// every relation the plan referenced. Entries are immutable once
// published.
type Entry struct {
	est  *Estimate
	rels []relSnap
}

// snapshot appends rel's snapshot to the entry under its catalog name.
func (e *Entry) snapshot(name string, rel *tp.Relation) {
	e.rels = append(e.rels, relSnap{
		name: name, rel: weak.Make(rel), stamp: rel.Stamp(),
	})
}

// valid reports whether every referenced relation is still the one the
// plan was built against, at the same Stamp.
func (e *Entry) valid(cat *catalog.Catalog) bool {
	for _, sn := range e.rels {
		cur, err := cat.Lookup(sn.name)
		if err != nil || cur != sn.rel.Value() || cur.Stamp() != sn.stamp {
			return false
		}
	}
	return true
}

// Cache is the shared plan cache: a bounded LRU from (normalized
// statement text, plan-relevant session settings) to memoized planning
// results, validated per hit against the referenced relations' current
// catalog state. Safe for concurrent use; tpserverd attaches one Cache to
// every session, the REPL keeps a process-local one.
type Cache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *cacheItem
	items map[string]*list.Element

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheItem struct {
	key   string
	entry *Entry
}

// NewCache returns a plan cache holding up to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, lru: list.New(), items: make(map[string]*list.Element)}
}

// cacheKey composes the lookup key: the normalized statement text plus
// every session setting that changes the plan shape — forced strategy,
// the TA plan form, the worker count the estimates were priced for, and
// the calibration identity. Parameter values are deliberately absent:
// they bind per EXECUTE and do not move the strategy pick. MemBudget is
// absent too — it gates execution, not planning.
func cacheKey(text string, sess *Session) string {
	return fmt.Sprintf("%s\x00strategy=%s nl=%t workers=%d calib=%p",
		text, sess.Strategy, sess.TANestedLoop, sess.Workers, sess.Calib)
}

// get returns the entry under key if present and still valid. An entry
// whose referenced relations changed is removed and counted as an
// invalidation (plus the miss the caller experiences).
func (c *Cache) get(key string, cat *catalog.Catalog) (*Entry, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	var e *Entry
	if ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*cacheItem).entry
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	// Validate outside the cache lock — catalog lookups take their own.
	if !e.valid(cat) {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.lru.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// put publishes an entry, evicting the least recently used one beyond
// capacity.
func (c *Cache) put(key string, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).entry = e
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&cacheItem{key: key, entry: e})
	if c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time copy of the cache counters, exposed as
// the tpserverd_plan_cache_* metric families.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Entries       int
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
	}
}

// PlanPrepared compiles a prepared statement with params bound,
// consulting cache (nil disables caching — every EXECUTE then plans
// fresh). It reports whether the plan came from the cache: a hit skips
// statistics profiling and cost-model estimation entirely and re-binds
// only the cheap operator construction; parse was already skipped by
// PREPARE.
func PlanPrepared(cache *Cache, cat *catalog.Catalog, sess *Session, p *Prepared, params []sql.Literal) (op engine.Operator, cached bool, err error) {
	if err := p.bindCheck(params); err != nil {
		return nil, false, err
	}
	if cache == nil {
		op, _, err := build(p.Query, cat, sess, params, nil)
		return op, false, err
	}
	key := cacheKey(p.Text, sess)
	if e, ok := cache.get(key, cat); ok {
		op, _, err := build(p.Query, cat, sess, params, e)
		return op, true, err
	}
	op, e, err := build(p.Query, cat, sess, params, nil)
	if err != nil {
		return nil, false, err
	}
	cache.put(key, e)
	return op, false, nil
}
