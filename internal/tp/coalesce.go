package tp

import "sort"

// Coalesce returns a copy of rel in which value-equivalent tuples with
// adjacent or overlapping intervals are merged: tuples merge when they
// have the same fact and *structurally equal* lineage (and hence equal
// probability). Join results chunk time at window boundaries; coalescing
// restores maximal intervals where the chunks carry identical lineage.
// No engine path calls it; the benchmark in e2ebench/ compares results
// through it.
//
// Coalescing with *equivalent* (rather than structurally equal) lineages
// would require exponential-time equivalence checks; structural equality
// is the standard compromise and is complete for the outputs of the
// operators in this module, whose lineage construction is deterministic.
func Coalesce(rel *Relation) *Relation {
	out := &Relation{
		Name:  rel.Name,
		Attrs: append([]string(nil), rel.Attrs...),
		Probs: rel.Probs,
	}
	if rel.Len() == 0 {
		return out
	}
	tuples := append([]Tuple(nil), rel.Tuples...)
	sort.SliceStable(tuples, func(i, j int) bool {
		a, b := tuples[i], tuples[j]
		if c := a.Fact.Compare(b.Fact); c != 0 {
			return c < 0
		}
		la, lb := uint64(0), uint64(0)
		if a.Lineage != nil {
			la = a.Lineage.Hash()
		}
		if b.Lineage != nil {
			lb = b.Lineage.Hash()
		}
		if la != lb {
			return la < lb
		}
		return a.T.Less(b.T)
	})
	cur := tuples[0]
	for _, t := range tuples[1:] {
		if cur.Fact.Equal(t.Fact) && lineageEqual(cur, t) && t.T.Start <= cur.T.End {
			if t.T.End > cur.T.End {
				cur.T.End = t.T.End
			}
			continue
		}
		out.Tuples = append(out.Tuples, cur)
		cur = t
	}
	out.Tuples = append(out.Tuples, cur)
	return out
}

func lineageEqual(a, b Tuple) bool {
	if a.Lineage == nil || b.Lineage == nil {
		return a.Lineage == b.Lineage
	}
	return a.Lineage.Equal(b.Lineage)
}
