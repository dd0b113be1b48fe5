package align

// The byte-identity oracle of the TA reduction: the textbook tail that
// evaluates a join with negation as two sub-queries over the same
// alignment — the aligned outer join (A: pairings + unmatched fragments)
// and the negated part (B: negated + unmatched fragments again) —
// materializes both row sets with fully formed facts, sorts them, and
// duplicate-eliminates. Production runs the fused streaming tail
// (stream.go) for every plan; this code lives in the test binary only, and
// the equivalence tests pin the streamed output to it row for row.

import (
	"context"
	"fmt"
	"slices"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
)

// row is one not-yet-deduplicated output tuple.
type row struct {
	fact tp.Fact
	lam  *lineage.Expr
	t    interval.Interval
	pair bool // true for pairing rows (both sides present)
}

// outerRowsStream is sub-query A of the TA reduction: the aligned outer
// join. It appends the pairings — each once, over r.T ∩ s.T, at the
// fragment pairsAt picks — and the unmatched fragments to rows.
func outerRowsStream(ctx context.Context, al aligner, r, s *tp.Relation, cfg Config, mirror bool, stats *Stats, rows []row) ([]row, error) {
	frags := int64(0)
	err := al.drain(ctx, r, func(ri int, t interval.Interval, cover []int32) error {
		frags++
		rt := &r.Tuples[ri]
		if len(cover) == 0 {
			fact := rt.Fact.Concat(tp.Nulls(s.Arity()))
			if mirror {
				fact = tp.Nulls(s.Arity()).Concat(rt.Fact)
			}
			rows = append(rows, row{fact: fact, lam: rt.Lineage, t: t})
			return nil
		}
		for _, si := range cover {
			st := &s.Tuples[si]
			if !pairsAt(t.Start, rt, st) {
				continue
			}
			fact := rt.Fact.Concat(st.Fact)
			if mirror {
				fact = st.Fact.Concat(rt.Fact)
			}
			rows = append(rows, row{fact: fact, lam: lineage.And(rt.Lineage, st.Lineage), t: rt.T.Intersect(st.T), pair: true})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.AlignPasses++
		stats.Fragments += frags
	}
	return rows, nil
}

// negRowsStream is sub-query B of the TA reduction: the negated part. It
// re-drains the alignment (re-enumerating every fragment) and appends the
// negated fragments — and, unavoidably, the unmatched fragments a second
// time; the final union removes those duplicates.
func negRowsStream(ctx context.Context, al aligner, r, s *tp.Relation, cfg Config, mirror, antiSchema bool, stats *Stats, rows []row) ([]row, error) {
	frags := int64(0)
	var parts []*lineage.Expr
	err := al.drain(ctx, r, func(ri int, t interval.Interval, cover []int32) error {
		frags++
		rt := &r.Tuples[ri]
		fact := rt.Fact.Concat(tp.Nulls(s.Arity()))
		switch {
		case antiSchema:
			fact = rt.Fact
		case mirror:
			fact = tp.Nulls(s.Arity()).Concat(rt.Fact)
		}
		if len(cover) == 0 {
			rows = append(rows, row{fact: fact, lam: rt.Lineage, t: t})
			return nil
		}
		parts = parts[:0]
		for _, si := range cover {
			parts = append(parts, s.Tuples[si].Lineage)
		}
		rows = append(rows, row{fact: fact, lam: lineage.AndNot(rt.Lineage, lineage.Or(parts...)), t: t})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.AlignPasses++
		stats.Fragments += frags
	}
	return rows, nil
}

// unionDistinct implements the duplicate-eliminating union the paper
// describes: the rows are sorted and equal (fact, interval, lineage) rows
// are collapsed. This sort-based pass is part of TA's measured cost — but
// it runs on the batched substrate's terms: a stable sort over an index
// permutation (generic, no reflection, no fat-struct swaps) with the same
// (fact, interval, lineage-hash) order and input-order tie-breaking the
// reference sort.SliceStable produced, so the output is byte-identical.
func unionDistinct(rows []row) []row {
	if len(rows) < 2 {
		return rows
	}
	idx := make([]int32, len(rows))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int {
		a, b := &rows[i], &rows[j]
		if c := a.fact.Compare(b.fact); c != 0 {
			return c
		}
		if c := a.t.Compare(b.t); c != 0 {
			return c
		}
		ha, hb := a.lam.Hash(), b.lam.Hash()
		switch {
		case ha < hb:
			return -1
		case ha > hb:
			return 1
		default:
			// The input index as the final tiebreaker makes the unstable
			// sort reproduce the reference's stable order exactly.
			return int(i) - int(j)
		}
	})
	out := make([]row, 0, len(rows))
	for n, i := range idx {
		rw := &rows[i]
		if n > 0 {
			prev := &out[len(out)-1]
			if prev.fact.Equal(rw.fact) && prev.t.Equal(rw.t) && prev.lam.Equal(rw.lam) {
				continue
			}
		}
		out = append(out, *rw)
	}
	return out
}

func finish(name string, attrs []string, probs prob.Probs, rows []row) *tp.Relation {
	rel := &tp.Relation{Name: name, Attrs: attrs, Probs: probs}
	ev := prob.NewBatchEvaluator(probs)
	rel.Tuples = make([]tp.Tuple, 0, len(rows))
	for _, rw := range rows {
		rel.Tuples = append(rel.Tuples, tp.Tuple{
			Fact: rw.fact, Lineage: rw.lam, T: rw.t, Prob: ev.Prob(rw.lam),
		})
	}
	return rel
}

func joinAttrs(r, s *tp.Relation) []string {
	attrs := make([]string, 0, len(r.Attrs)+len(s.Attrs))
	attrs = append(attrs, r.Attrs...)
	attrs = append(attrs, s.Attrs...)
	return attrs
}

// referenceJoin computes a TA join the reference way, forcing the scalar
// aligner for every pass, independent of Config.
func referenceJoin(op tp.Op, r, s *tp.Relation, theta tp.EquiTheta, cfg Config) *tp.Relation {
	ctx := context.Background()
	build := func(inner *tp.Relation, th tp.EquiTheta) aligner { return newScalarAligner(inner, th, cfg) }
	switch op {
	case tp.OpInner:
		al := build(s, theta)
		outer, _ := outerRowsStream(ctx, al, r, s, cfg, false, nil, nil)
		var rows []row
		for _, rw := range outer {
			if rw.pair {
				rows = append(rows, rw)
			}
		}
		return finish(fmt.Sprintf("%s_join_%s", r.Name, s.Name), joinAttrs(r, s), tp.MergeProbs(r, s), unionDistinct(rows))
	case tp.OpAnti:
		al := build(s, theta)
		rows, _ := negRowsStream(ctx, al, r, s, cfg, false, true, nil, nil)
		return finish(fmt.Sprintf("%s_anti_%s", r.Name, s.Name), append([]string(nil), r.Attrs...), tp.MergeProbs(r, s), unionDistinct(rows))
	case tp.OpLeft:
		al := build(s, theta)
		rows, _ := outerRowsStream(ctx, al, r, s, cfg, false, nil, nil)
		rows, _ = negRowsStream(ctx, al, r, s, cfg, false, false, nil, rows)
		return finish(fmt.Sprintf("%s_louter_%s", r.Name, s.Name), joinAttrs(r, s), tp.MergeProbs(r, s), unionDistinct(rows))
	case tp.OpRight:
		al := build(r, tp.Swap(theta))
		rows, _ := outerRowsStream(ctx, al, s, r, cfg, true, nil, nil)
		rows, _ = negRowsStream(ctx, al, s, r, cfg, true, false, nil, rows)
		return finish(fmt.Sprintf("%s_router_%s", r.Name, s.Name), joinAttrs(r, s), tp.MergeProbs(r, s), unionDistinct(rows))
	case tp.OpFull:
		fwd := build(s, theta)
		rows, _ := outerRowsStream(ctx, fwd, r, s, cfg, false, nil, nil)
		rows, _ = negRowsStream(ctx, fwd, r, s, cfg, false, false, nil, rows)
		mir := build(r, tp.Swap(theta))
		rows, _ = negRowsStream(ctx, mir, s, r, cfg, true, false, nil, rows)
		return finish(fmt.Sprintf("%s_fouter_%s", r.Name, s.Name), joinAttrs(r, s), tp.MergeProbs(r, s), unionDistinct(rows))
	default:
		panic("unknown op")
	}
}
