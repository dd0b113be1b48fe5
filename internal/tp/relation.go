package tp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
)

// Tuple is a temporal-probabilistic tuple (F, λ, T, p): a fact F valid over
// the half-open interval T, true with probability p = Pr(λ), where λ is a
// lineage formula over independent base events.
type Tuple struct {
	Fact    Fact
	Lineage *lineage.Expr
	T       interval.Interval
	Prob    float64
}

// String renders the tuple in the layout of the paper's figures:
// ('Ann, ZAK', a1, [2,8), 0.7).
func (t Tuple) String() string {
	return fmt.Sprintf("('%s', %s, %s, %.6g)", t.Fact, t.Lineage, t.T, t.Prob)
}

// Relation is a TP relation: a named list of TP tuples over a fixed set of
// non-temporal attributes, together with the probabilities of the base
// events that its lineages mention.
type Relation struct {
	Name   string
	Attrs  []string
	Tuples []Tuple
	// Probs maps every base event appearing in the lineages of Tuples to
	// its probability. For a base relation these are exactly the tuple
	// probabilities; derived relations inherit the union of their inputs'.
	Probs prob.Probs

	// version counts structure-changing mutations through this package's
	// methods (appends, sorts); Stamp pairs it with the length. Direct
	// writes to Tuples bypass it — see the in-place mutation caveat below.
	version uint64

	// memo holds the structures Derived built from this relation; it dies
	// with the relation.
	mu   sync.Mutex
	memo []derived
}

// Stamp identifies a relation's contents for staleness checks: the tuple
// count plus the mutation counter that Append, AppendDerived and
// SortByStart bump. Two reads of an unchanged relation compare equal.
type Stamp struct {
	n       int
	version uint64
}

// Stamp returns the relation's current Stamp.
func (r *Relation) Stamp() Stamp { return Stamp{len(r.Tuples), r.version} }

type derived struct {
	key string
	at  Stamp
	v   any
}

// Derived returns the structure build derives from the relation's tuples
// (a start order, a key dictionary, statistics), memoized under key and
// rebuilt when the Stamp has moved since it was built. Safe for concurrent
// use; two concurrent first calls may both build, and either result is
// valid.
func (r *Relation) Derived(key string, build func() any) any {
	at := r.Stamp()
	r.mu.Lock()
	for _, d := range r.memo {
		if d.key == key && d.at == at {
			r.mu.Unlock()
			return d.v
		}
	}
	r.mu.Unlock()
	v := build()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.memo {
		if r.memo[i].key == key {
			r.memo[i] = derived{key, at, v}
			return v
		}
	}
	r.memo = append(r.memo, derived{key, at, v})
	return v
}

// NewRelation returns an empty relation with the given name and attribute
// names. The name doubles as the lineage-variable prefix for base tuples.
func NewRelation(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: attrs, Probs: make(prob.Probs)}
}

// IsProb reports whether p is a probability: in [0, 1], which NaN is not.
// Every decoder of untrusted probabilities checks it.
func IsProb(p float64) bool { return p >= 0 && p <= 1 }

// Append adds a base tuple with the next base-event variable (name,
// len(Tuples)+1), registering its probability. It returns the assigned
// variable for convenience.
func (r *Relation) Append(f Fact, t interval.Interval, p float64) lineage.Var {
	if len(f) != len(r.Attrs) {
		panic(fmt.Sprintf("tp: fact arity %d does not match schema %v", len(f), r.Attrs))
	}
	if !IsProb(p) {
		panic(fmt.Sprintf("tp: probability %g out of [0,1]", p))
	}
	if t.Empty() {
		panic("tp: tuple with empty interval")
	}
	v := lineage.Var{Rel: r.Name, ID: len(r.Tuples) + 1}
	r.Tuples = append(r.Tuples, Tuple{Fact: f, Lineage: lineage.VarExpr(v), T: t, Prob: p})
	r.Probs[v] = p
	r.version++
	return v
}

// AppendDerived adds a tuple with an explicit lineage; the caller must make
// sure the base events of the lineage are registered in Probs.
func (r *Relation) AppendDerived(f Fact, e *lineage.Expr, t interval.Interval, p float64) {
	r.Tuples = append(r.Tuples, Tuple{Fact: f, Lineage: e, T: t, Prob: p})
	r.version++
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Arity returns the number of non-temporal attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Clone returns a deep copy of the relation (tuples share immutable facts
// and lineages).
func (r *Relation) Clone() *Relation {
	out := &Relation{
		Name:   r.Name,
		Attrs:  append([]string(nil), r.Attrs...),
		Tuples: append([]Tuple(nil), r.Tuples...),
		Probs:  r.Probs.Clone(),
	}
	return out
}

// In-place mutation caveat: Derived memoizes structures (start-sorted
// orders, interned-key dictionaries, statistics) on the relation,
// invalidated by its Stamp. The mutating methods of this package move the
// Stamp, as does a direct append that changes the length; an equal-length
// write through the exported Tuples slice does not. Treat a relation as
// immutable once it has been used as a join input, or Clone before
// mutating it by hand.

// SortByStart sorts tuples by interval (Start, End). See the in-place
// mutation caveat above.
func (r *Relation) SortByStart() {
	r.version++
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		return r.Tuples[i].T.Less(r.Tuples[j].T)
	})
}

// ValidateSequenced checks the sequenced-TP integrity constraint: within
// the relation, tuples with the same fact must have pairwise disjoint
// intervals, so that every fact has at most one probability at each time
// point. It returns a descriptive error for the first violation.
func (r *Relation) ValidateSequenced() error {
	byFact := NewKeyGroups[interval.Interval]()
	for i, t := range r.Tuples {
		if t.T.Empty() {
			return fmt.Errorf("tp: %s tuple %d has empty interval", r.Name, i)
		}
		if t.Lineage == nil {
			return fmt.Errorf("tp: %s tuple %d has null lineage", r.Name, i)
		}
		g := byFact.Group(t.Fact.KeyHash(), t.Fact, Fact.Equal)
		for _, iv := range g.Vals {
			if iv.Overlaps(t.T) {
				return fmt.Errorf("tp: %s fact '%s' has overlapping intervals %v and %v",
					r.Name, t.Fact, iv, t.T)
			}
		}
		g.Vals = append(g.Vals, t.T)
	}
	return nil
}

// String renders the relation as a small table, for examples and debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)\n", r.Name, strings.Join(r.Attrs, ", "))
	for _, t := range r.Tuples {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// MergeProbs returns the union of the base-event probability maps of rs.
// It panics when the same base event is registered with two different
// probabilities, which indicates relations from inconsistent databases.
func MergeProbs(rs ...*Relation) prob.Probs {
	out := make(prob.Probs)
	for _, r := range rs {
		for v, p := range r.Probs {
			if q, ok := out[v]; ok && q != p {
				panic(fmt.Sprintf("tp: base event %v has conflicting probabilities %g and %g", v, q, p))
			}
			out[v] = p
		}
	}
	return out
}
