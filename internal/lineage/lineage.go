// Package lineage implements the propositional lineage formulas attached to
// temporal-probabilistic tuples.
//
// A lineage expression is built over base events (variables), each of which
// identifies one tuple of a base relation, e.g. a1 or b3 in the paper's
// running example. Derived tuples carry expressions combined with the
// lineage-concatenation functions of the paper:
//
//	and(λr, λs)    = λr ∧ λs          (overlapping windows)
//	andNot(λr, λs) = λr ∧ ¬λs         (negating windows)
//	λr                                 (unmatched windows)
//
// Expressions are immutable and structurally hashed; the constructors apply
// light simplification (identities, annihilators, flattening, duplicate
// removal, double negation) so that printed lineages match the compact form
// used in the paper, without performing expensive canonicalization.
package lineage

import (
	"fmt"
	"sort"
	"strings"
)

// Var identifies one base event: tuple ID within a base relation.
// It prints like the paper's tuple identifiers, e.g. {Rel: "a", ID: 1}
// prints "a1".
type Var struct {
	Rel string
	ID  int
}

// String returns the paper-style name of the variable, e.g. "b3".
func (v Var) String() string { return fmt.Sprintf("%s%d", v.Rel, v.ID) }

// Less orders variables by (Rel, ID).
func (v Var) Less(o Var) bool {
	if v.Rel != o.Rel {
		return v.Rel < o.Rel
	}
	return v.ID < o.ID
}

// Kind discriminates the node types of a lineage expression.
type Kind uint8

// The expression node kinds.
const (
	KindFalse Kind = iota
	KindTrue
	KindVar
	KindNot
	KindAnd
	KindOr
)

func (k Kind) String() string {
	switch k {
	case KindFalse:
		return "false"
	case KindTrue:
		return "true"
	case KindVar:
		return "var"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Expr is an immutable lineage expression. The zero value is not valid;
// use the constructors. A nil *Expr represents the paper's "null" lineage
// (absent λs of an unmatched window) and is distinct from False.
type Expr struct {
	kind Kind
	v    Var     // valid when kind == KindVar
	kids []*Expr // operands of Not (1), And, Or (>= 2)
	hash uint64
}

var (
	exprFalse = &Expr{kind: KindFalse, hash: fnvMix(0x0f)}
	exprTrue  = &Expr{kind: KindTrue, hash: fnvMix(0x1e)}
)

// False returns the constant-false lineage.
func False() *Expr { return exprFalse }

// True returns the constant-true lineage.
func True() *Expr { return exprTrue }

// NewVar returns the lineage consisting of the single base event (rel, id).
func NewVar(rel string, id int) *Expr { return VarExpr(Var{Rel: rel, ID: id}) }

// VarExpr returns the lineage consisting of the single base event v.
func VarExpr(v Var) *Expr {
	h := fnvMix(0x7a)
	for i := 0; i < len(v.Rel); i++ {
		h = fnvStep(h, uint64(v.Rel[i]))
	}
	h = fnvStep(h, uint64(v.ID)+0x9e3779b97f4a7c15)
	return &Expr{kind: KindVar, v: v, hash: h}
}

// Kind returns the node kind of e.
func (e *Expr) Kind() Kind { return e.kind }

// Variable returns the variable of a KindVar node; it panics otherwise.
func (e *Expr) Variable() Var {
	if e.kind != KindVar {
		panic("lineage: Variable called on " + e.kind.String())
	}
	return e.v
}

// Operands returns the child expressions (nil for leaves). The returned
// slice must not be modified.
func (e *Expr) Operands() []*Expr { return e.kids }

// Hash returns the structural hash of e.
func (e *Expr) Hash() uint64 { return e.hash }

// Not returns ¬e, simplifying constants and double negation.
func Not(e *Expr) *Expr {
	if e == nil {
		panic("lineage: Not(nil)")
	}
	switch e.kind {
	case KindFalse:
		return exprTrue
	case KindTrue:
		return exprFalse
	case KindNot:
		return e.kids[0]
	}
	return newNode(KindNot, []*Expr{e})
}

// And returns the conjunction of es, simplifying identities (true),
// annihilators (false), flattening nested conjunctions one level and
// removing duplicate operands. And() is True.
func And(es ...*Expr) *Expr { return nary(KindAnd, exprTrue, exprFalse, es) }

// Or returns the disjunction of es, simplifying identities (false),
// annihilators (true), flattening nested disjunctions one level and
// removing duplicate operands. Or() is False.
func Or(es ...*Expr) *Expr { return nary(KindOr, exprFalse, exprTrue, es) }

// AndNot returns λr ∧ ¬λs, the lineage-concatenation function of negating
// windows. When s is nil (the unmatched case) it returns r unchanged.
func AndNot(r, s *Expr) *Expr {
	if s == nil {
		return r
	}
	return And(r, Not(s))
}

func nary(kind Kind, identity, annihilator *Expr, es []*Expr) *Expr {
	flat := make([]*Expr, 0, len(es))
	for _, e := range es {
		if e == nil {
			panic("lineage: nil operand")
		}
		if e == identity || e.kind == identity.kind {
			continue
		}
		if e == annihilator || e.kind == annihilator.kind {
			return annihilator
		}
		if e.kind == kind {
			flat = append(flat, e.kids...)
		} else {
			flat = append(flat, e)
		}
	}
	// Remove duplicates, preserving first-occurrence order so printed
	// lineages follow the paper's reading order (e.g. b3 ∨ b2).
	uniq := flat[:0]
	for _, e := range flat {
		dup := false
		for _, u := range uniq {
			if u.Equal(e) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, e)
		}
	}
	switch len(uniq) {
	case 0:
		return identity
	case 1:
		return uniq[0]
	}
	kids := make([]*Expr, len(uniq))
	copy(kids, uniq)
	return newNode(kind, kids)
}

func newNode(kind Kind, kids []*Expr) *Expr {
	h := fnvMix(uint64(kind) + 0x51)
	// Combine child hashes order-independently for And/Or so that
	// structurally equal formulas that differ only in operand order get
	// the same hash (Equal treats them as equal multisets).
	if kind == KindAnd || kind == KindOr {
		var sum, xor uint64
		for _, k := range kids {
			sum += k.hash
			xor ^= rotl(k.hash, 17)
		}
		h = fnvStep(h, sum)
		h = fnvStep(h, xor)
		h = fnvStep(h, uint64(len(kids)))
	} else {
		for _, k := range kids {
			h = fnvStep(h, k.hash)
		}
	}
	return &Expr{kind: kind, kids: kids, hash: h}
}

// Equal reports whether e and o are structurally equal, treating And/Or
// operands as multisets (operand order is irrelevant).
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return false
	}
	if e.hash != o.hash || e.kind != o.kind || len(e.kids) != len(o.kids) {
		return false
	}
	switch e.kind {
	case KindFalse, KindTrue:
		return true
	case KindVar:
		return e.v == o.v
	case KindNot:
		return e.kids[0].Equal(o.kids[0])
	default: // And, Or: multiset comparison
		used := make([]bool, len(o.kids))
	outer:
		for _, ek := range e.kids {
			for j, ok := range o.kids {
				if !used[j] && ek.Equal(ok) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	}
}

// Eval evaluates e under the given truth assignment. Variables absent from
// the assignment are treated as false.
func (e *Expr) Eval(assign map[Var]bool) bool {
	switch e.kind {
	case KindFalse:
		return false
	case KindTrue:
		return true
	case KindVar:
		return assign[e.v]
	case KindNot:
		return !e.kids[0].Eval(assign)
	case KindAnd:
		for _, k := range e.kids {
			if !k.Eval(assign) {
				return false
			}
		}
		return true
	case KindOr:
		for _, k := range e.kids {
			if k.Eval(assign) {
				return true
			}
		}
		return false
	default:
		panic("lineage: invalid expression")
	}
}

// Vars returns the distinct variables of e, sorted by (Rel, ID).
func (e *Expr) Vars() []Var {
	set := make(map[Var]struct{})
	e.collectVars(set)
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (e *Expr) collectVars(set map[Var]struct{}) {
	if e.kind == KindVar {
		set[e.v] = struct{}{}
		return
	}
	for _, k := range e.kids {
		k.collectVars(set)
	}
}

// Restrict returns e with variable v fixed to the truth value b (the
// Shannon cofactor e|v=b), simplified by the usual constructor rules.
func (e *Expr) Restrict(v Var, b bool) *Expr {
	switch e.kind {
	case KindFalse, KindTrue:
		return e
	case KindVar:
		if e.v == v {
			if b {
				return exprTrue
			}
			return exprFalse
		}
		return e
	case KindNot:
		k := e.kids[0].Restrict(v, b)
		if k == e.kids[0] {
			return e
		}
		return Not(k)
	case KindAnd, KindOr:
		changed := false
		kids := make([]*Expr, len(e.kids))
		for i, k := range e.kids {
			kids[i] = k.Restrict(v, b)
			if kids[i] != k {
				changed = true
			}
		}
		if !changed {
			return e
		}
		if e.kind == KindAnd {
			return And(kids...)
		}
		return Or(kids...)
	default:
		panic("lineage: invalid expression")
	}
}

// String renders the expression with the paper's connectives:
// a1 ∧ ¬(b3 ∨ b2). A nil expression renders as "null".
func (e *Expr) String() string {
	if e == nil {
		return "null"
	}
	var b strings.Builder
	e.render(&b, 0)
	return b.String()
}

// precedence levels: Or < And < Not < atom
func (e *Expr) render(b *strings.Builder, parentPrec int) {
	prec := e.prec()
	if prec < parentPrec {
		b.WriteByte('(')
		defer b.WriteByte(')')
	}
	switch e.kind {
	case KindFalse:
		b.WriteString("⊥")
	case KindTrue:
		b.WriteString("⊤")
	case KindVar:
		b.WriteString(e.v.String())
	case KindNot:
		b.WriteString("¬")
		e.kids[0].render(b, 3)
	case KindAnd:
		for i, k := range e.kids {
			if i > 0 {
				b.WriteString(" ∧ ")
			}
			k.render(b, 2)
		}
	case KindOr:
		for i, k := range e.kids {
			if i > 0 {
				b.WriteString(" ∨ ")
			}
			k.render(b, 1)
		}
	}
}

func (e *Expr) prec() int {
	switch e.kind {
	case KindOr:
		return 1
	case KindAnd:
		return 2
	default:
		return 4
	}
}

// --- hashing helpers (FNV-1a style mixing) ---

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(x uint64) uint64 { return fnvStep(fnvOffset, x) }

func fnvStep(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }
