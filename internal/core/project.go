package core

import (
	"context"
	"sort"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// ProjectLineage computes the temporal-probabilistic projection of rel to
// the given fact columns *with duplicate elimination*: tuples that agree
// on the projected fact and are valid at the same time point merge, and
// the merged tuple is true when any of the originals is — its lineage is
// the disjunction of theirs. (Without lineages this is sequenced
// DISTINCT; with them it is the standard probabilistic-database
// projection, here combined with temporal splitting.)
//
// The implementation follows the same sweeping scheme as the negating
// windows: per projected fact, the validity intervals of the contributing
// tuples are split at every start/end point, and each elementary interval
// carries the disjunction of the lineages valid over it. Adjacent
// intervals whose disjunctions are structurally equal are re-coalesced,
// so maximal intervals come out (e.g. a projection that drops a column
// distinguishing two adjacent chunks yields one merged tuple).
//
// ctx is observed while grouping, once per projected fact, every
// projectCancelWork entries scanned inside one fact, and at every
// probability batch, where a memory budget on it (mem.WithGauge) is also
// charged for the emitted rows; on either failure the result is nil.
func ProjectLineage(ctx context.Context, rel *tp.Relation, cols []int, names []string) (*tp.Relation, error) {
	if len(cols) != len(names) {
		panic("core: ProjectLineage arity mismatch")
	}
	out := &tp.Relation{
		Name:  rel.Name + "_proj",
		Attrs: append([]string(nil), names...),
		Probs: rel.Probs,
	}

	type entry struct {
		t   interval.Interval
		lam *lineage.Expr
	}
	// Group by hashed projected-fact key in first-seen order.
	byFact := tp.NewKeyGroups[entry]()
	for n, tu := range rel.Tuples {
		if n%cancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		f := make(tp.Fact, len(cols))
		for i, c := range cols {
			f[i] = tu.Fact[c]
		}
		g := byFact.Group(f.KeyHash(), f, tp.Fact.Equal)
		g.Vals = append(g.Vals, entry{t: tu.T, lam: tu.Lineage})
	}

	// Output probabilities are evaluated in BatchSize batches over one
	// shared memo: projection groups repeat the same disjunction shapes,
	// so distinct sub-lineages are evaluated once, not once per chunk.
	bev := prob.NewBatchEvaluator(rel.Probs)
	type outRow struct {
		fact tp.Fact
		lam  *lineage.Expr
		t    interval.Interval
	}
	pend := make([]outRow, 0, BatchSize)
	lams := make([]*lineage.Expr, BatchSize)
	ps := make([]float64, BatchSize)
	gauge := mem.FromContext(ctx)
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := gauge.Charge(int64(len(pend)) * mem.TupleBytes(len(names))); err != nil {
			return err
		}
		for i := range pend {
			lams[i] = pend[i].lam
		}
		bev.EvalBatch(lams[:len(pend)], ps)
		for i := range pend {
			out.AppendDerived(pend[i].fact, pend[i].lam, pend[i].t, ps[i])
		}
		pend = pend[:0]
		return nil
	}
	list, work := byFact.Groups(), 0
	for gi := range list {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		es := list[gi].Vals
		// Elementary intervals of the group's coverage.
		ivs := make([]interval.Interval, len(es))
		for i, e := range es {
			ivs[i] = e.t
		}
		elem := interval.Elementary(ivs)
		// Build one tuple per elementary interval, then coalesce runs with
		// equal lineage.
		type chunk struct {
			t   interval.Interval
			lam *lineage.Expr
		}
		chunks := make([]chunk, 0, len(elem))
		for _, el := range elem {
			if work += len(es) + 1; work >= projectCancelWork {
				work = 0
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			var parts []*lineage.Expr
			for _, e := range es {
				if e.t.ContainsInterval(el) {
					parts = append(parts, e.lam)
				}
			}
			chunks = append(chunks, chunk{t: el, lam: lineage.Or(parts...)})
		}
		sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].t.Less(chunks[j].t) })
		for i := 0; i < len(chunks); {
			j := i + 1
			cur := chunks[i]
			for j < len(chunks) && chunks[j].t.Start == cur.t.End && chunks[j].lam.Equal(cur.lam) {
				cur.t.End = chunks[j].t.End
				j++
			}
			pend = append(pend, outRow{fact: list[gi].Fact, lam: cur.lam, t: cur.t})
			if len(pend) == BatchSize {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			i = j
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// projectCancelWork bounds the entries ProjectLineage scans between
// context checks inside one projected fact, like align's drainCancelWork.
const projectCancelWork = 4096
