// Package prob computes the probability of lineage formulas under the
// tuple-independence assumption of probabilistic databases: every base
// event (lineage variable) is an independent Bernoulli variable.
//
// Computing Pr(λ) is #P-hard in general. The package holds one exact
// evaluator (BatchEvaluator) with one evaluation function, which tries in
// this order:
//
//  1. constants and literals are immediate, negation complements;
//  2. an ∧/∨ node already in the memo (structural hash + Equal, shared by
//     every lineage the evaluator sees) is answered from it;
//  3. the operands are partitioned into variable-connected groups, on a
//     generation-stamped ownership map and a reused union-find that
//     allocate nothing per node. Pairwise variable-disjoint operands
//     (every operand its own group) are independent: their probabilities
//     compose in operand order by multiplication (∧) or by multiplying
//     complements (∨);
//  4. several groups compose the same way, each group evaluated as the
//     ∧/∨ of its members;
//  5. a node that is one connected group is Shannon-expanded on its most
//     frequent variable.
//
// Cofactors and groups go back through the same function, so a read-once
// sub-formula below a shared-variable node takes step 3 again.
//
// Every lineage produced by the TP join operators over base relations is
// read-once (each base event occurs at most once), so step 3 always
// applies and evaluation is linear in formula size — the paper's operators
// never pay the exponential branch. Steps 4 and 5 exist for completeness,
// e.g. when joining derived relations; ShannonSteps counts them and
// EXPLAIN ANALYZE prints the count. Enumerate and the BDD (bdd.go) are
// independent references the tests compare against.
package prob

import (
	"fmt"

	"tpjoin/internal/lineage"
)

// Probs assigns a probability to every base event.
type Probs map[lineage.Var]float64

// Clone returns a copy of p.
func (p Probs) Clone() Probs {
	out := make(Probs, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// BatchEvaluator computes exact probabilities of lineage expressions,
// one at a time (Prob) or a batch of rows at a time (EvalBatch), caching
// every ∧/∨ sub-lineage it has evaluated: the chain-shaped lineages of a
// join are evaluated once per distinct sub-expression, not once per row.
// It is not safe for concurrent use.
type BatchEvaluator struct {
	probs Probs
	memo  map[uint64][]memoEntry

	// owners and group are the independence scratch of steps 3–4 (see
	// partition): one map and one union-find slice live for the
	// evaluator's lifetime, and each node stamps the map entries with a
	// fresh generation instead of clearing.
	owners map[lineage.Var]ownerMark
	gen    uint64
	group  []int32

	batches      int64
	memoHits     int64
	shannonSteps int64
}

type memoEntry struct {
	expr *lineage.Expr
	p    float64
}

type ownerMark struct {
	gen uint64
	kid int32
}

// NewBatchEvaluator returns an evaluator over the given base-event
// probabilities. Probabilities must lie in [0, 1]; evaluation panics on a
// variable absent from probs, which indicates an inconsistent database.
func NewBatchEvaluator(probs Probs) *BatchEvaluator {
	return &BatchEvaluator{
		probs:  probs,
		memo:   make(map[uint64][]memoEntry),
		owners: make(map[lineage.Var]ownerMark),
	}
}

// Batches reports how many EvalBatch calls the evaluator has served.
func (b *BatchEvaluator) Batches() int64 { return b.batches }

// MemoHits reports how many ∧/∨ sub-lineages were answered from the memo
// instead of being re-evaluated.
func (b *BatchEvaluator) MemoHits() int64 { return b.memoHits }

// ShannonSteps reports how many Shannon expansions the evaluator has
// performed; zero for purely read-once workloads.
func (b *BatchEvaluator) ShannonSteps() int64 { return b.shannonSteps }

// EvalBatch computes out[i] = Pr(es[i]) for every expression of the
// batch. out must have at least len(es) entries; a nil expression (the
// "null" lineage of unmatched windows) has no probability and panics.
func (b *BatchEvaluator) EvalBatch(es []*lineage.Expr, out []float64) {
	if len(out) < len(es) {
		panic(fmt.Sprintf("prob: EvalBatch output has %d slots for %d expressions", len(out), len(es)))
	}
	b.batches++
	for i, e := range es {
		if e == nil {
			panic("prob: EvalBatch(nil lineage)")
		}
		out[i] = b.eval(e)
	}
}

// Prob returns the exact probability of e through the same memo as
// EvalBatch. It panics on nil.
func (b *BatchEvaluator) Prob(e *lineage.Expr) float64 {
	if e == nil {
		panic("prob: Prob(nil lineage)")
	}
	return b.eval(e)
}

// eval is the package doc's steps 1–5.
func (b *BatchEvaluator) eval(e *lineage.Expr) float64 {
	switch e.Kind() {
	case lineage.KindFalse:
		return 0
	case lineage.KindTrue:
		return 1
	case lineage.KindVar:
		return b.prob(e.Variable())
	case lineage.KindNot:
		return 1 - b.eval(e.Operands()[0])
	}

	for _, ent := range b.memo[e.Hash()] {
		if ent.expr.Equal(e) {
			b.memoHits++
			return ent.p
		}
	}
	parts := e.Operands()
	n := b.partition(parts)
	if 1 < n && n < len(parts) {
		parts = b.parts(e.Kind(), parts, n)
	}
	var p float64
	switch {
	case n == 1:
		p = b.shannon(e)
	case e.Kind() == lineage.KindAnd:
		p = 1.0
		for _, k := range parts {
			p *= b.eval(k)
		}
	default:
		q := 1.0
		for _, k := range parts {
			q *= 1 - b.eval(k)
		}
		p = 1 - q
	}
	b.memo[e.Hash()] = append(b.memo[e.Hash()], memoEntry{expr: e, p: p})
	return p
}

func (b *BatchEvaluator) prob(v lineage.Var) float64 {
	p, ok := b.probs[v]
	if !ok {
		panic(fmt.Sprintf("prob: no probability for base event %v", v))
	}
	return p
}

// shannon expands e on its most frequently occurring variable:
// Pr(e) = p(v)·Pr(e|v=⊤) + (1−p(v))·Pr(e|v=⊥).
func (b *BatchEvaluator) shannon(e *lineage.Expr) float64 {
	v := mostFrequentVar(e)
	b.shannonSteps++
	pv := b.prob(v)
	hi := b.eval(e.Restrict(v, true))
	lo := b.eval(e.Restrict(v, false))
	return pv*hi + (1-pv)*lo
}

// partition finds the variable-connected groups of an ∧/∨ node's
// operands — formulas in different groups share no variable and are
// therefore independent under tuple independence — and returns how many
// there are; until the next call, find(i) names the group of operand i.
// It stamps each variable with the first operand seen holding it and
// merges groups on a second sighting, all on scratch the evaluator
// reuses. It completes, and parts reads it, before any recursive
// evaluation, so the scratch is never observed mid-recursion.
func (b *BatchEvaluator) partition(kids []*lineage.Expr) int {
	b.gen++
	b.group = b.group[:0]
	for i := range kids {
		b.group = append(b.group, int32(i))
	}
	n := len(kids)
	for i, k := range kids {
		n -= b.mark(k, int32(i))
	}
	return n
}

// mark stamps the variables of e for operand kid and returns how many
// group merges that caused.
func (b *BatchEvaluator) mark(e *lineage.Expr, kid int32) (merges int) {
	if e.Kind() == lineage.KindVar {
		v := e.Variable()
		if m, ok := b.owners[v]; !ok || m.gen != b.gen {
			b.owners[v] = ownerMark{gen: b.gen, kid: kid}
		} else if ri, rj := b.find(m.kid), b.find(kid); ri != rj {
			b.group[rj] = ri
			return 1
		}
		return 0
	}
	for _, k := range e.Operands() {
		merges += b.mark(k, kid)
	}
	return merges
}

func (b *BatchEvaluator) find(x int32) int32 {
	for b.group[x] != x {
		b.group[x] = b.group[b.group[x]]
		x = b.group[x]
	}
	return x
}

// parts returns one formula per group of the partition just computed, in
// order of first member: the operand itself for a singleton, the ∧/∨ of
// the members otherwise.
func (b *BatchEvaluator) parts(kind lineage.Kind, kids []*lineage.Expr, n int) []*lineage.Expr {
	slot := make(map[int32]int, n)
	members := make([][]*lineage.Expr, 0, n)
	for i, k := range kids {
		r := b.find(int32(i))
		j, seen := slot[r]
		if !seen {
			j, slot[r] = len(members), len(members)
			members = append(members, nil)
		}
		members[j] = append(members[j], k)
	}
	out := make([]*lineage.Expr, n)
	for j, g := range members {
		switch {
		case len(g) == 1:
			out[j] = g[0]
		case kind == lineage.KindAnd:
			out[j] = lineage.And(g...)
		default:
			out[j] = lineage.Or(g...)
		}
	}
	return out
}

// mostFrequentVar returns the variable with the most occurrences in e,
// breaking ties toward the smaller variable for determinism. Every ∧/∨
// node has one: the lineage constructors fold constants away.
func mostFrequentVar(e *lineage.Expr) lineage.Var {
	counts := make(map[lineage.Var]int)
	countVars(e, counts)
	var best lineage.Var
	bestN := 0
	for v, n := range counts {
		if n > bestN || (n == bestN && v.Less(best)) {
			best, bestN = v, n
		}
	}
	return best
}

func countVars(e *lineage.Expr, counts map[lineage.Var]int) {
	if e.Kind() == lineage.KindVar {
		counts[e.Variable()]++
		return
	}
	for _, k := range e.Operands() {
		countVars(k, counts)
	}
}

// Enumerate computes Pr(e) by summing over all 2^n assignments of e's
// variables. Exponential; used as a test oracle only.
func Enumerate(e *lineage.Expr, probs Probs) float64 {
	vars := e.Vars()
	if len(vars) > 24 {
		panic("prob: Enumerate on too many variables")
	}
	assign := make(map[lineage.Var]bool, len(vars))
	var rec func(i int, weight float64) float64
	rec = func(i int, weight float64) float64 {
		if weight == 0 {
			return 0
		}
		if i == len(vars) {
			if e.Eval(assign) {
				return weight
			}
			return 0
		}
		v := vars[i]
		p, ok := probs[v]
		if !ok {
			panic(fmt.Sprintf("prob: no probability for base event %v", v))
		}
		assign[v] = true
		t := rec(i+1, weight*p)
		assign[v] = false
		f := rec(i+1, weight*(1-p))
		return t + f
	}
	return rec(0, 1)
}
