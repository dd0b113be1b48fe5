// Package stats computes per-relation statistics for the planner's
// cost-based join-strategy picker (SET strategy = auto) and the \stats
// builtin: tuple counts, per-column distinct cardinalities and group
// sizes, and the temporal profile (interval span, durations, overlap
// density). Everything is derived in one pass over the tuples (Compute);
// Of memoizes the profile on the relation itself (tp.Relation.Derived),
// so it is rebuilt lazily on first use after a mutation and shared by
// every session that reads a catalog relation.
package stats

import (
	"fmt"
	"strings"

	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// ColStats describes the value distribution of one fact column.
type ColStats struct {
	// Name is the attribute name.
	Name string
	// Distinct is the number of distinct non-NULL values.
	Distinct int
	// Nulls is the number of NULL values.
	Nulls int
	// MaxGroup is the size of the largest per-value group.
	MaxGroup int
	// MeanGroup is the mean per-value group size
	// ((Tuples − Nulls) / Distinct); 0 for an all-NULL or empty column.
	MeanGroup float64
}

// Stats is the statistics profile of one relation.
type Stats struct {
	// Tuples is the relation's cardinality.
	Tuples int
	// Cols holds one entry per fact attribute, in schema order.
	Cols []ColStats

	// Span is the hull of all tuple intervals (zero for an empty
	// relation).
	Span interval.Interval
	// MeanDur and MaxDur describe the interval durations.
	MeanDur float64
	MaxDur  int64
	// Density is the temporal overlap factor: the expected number of
	// tuples whose interval covers a uniformly random instant of the
	// span (Σ durations / span length). It is the relation-wide
	// concurrency; divide by a key cardinality for the per-key value.
	Density float64
}

// Of returns rel's statistics, memoized on rel and recomputed on first use
// after a mutation moved its Stamp.
func Of(rel *tp.Relation) *Stats {
	return rel.Derived("stats", func() any { return Compute(rel) }).(*Stats)
}

// Compute derives the full statistics profile of rel in one pass over its
// tuples.
func Compute(rel *tp.Relation) *Stats {
	st := &Stats{
		Tuples: rel.Len(),
		Cols:   make([]ColStats, rel.Arity()),
	}
	counts := make([]map[tp.Value]int, rel.Arity())
	for c := range counts {
		st.Cols[c].Name = rel.Attrs[c]
		counts[c] = make(map[tp.Value]int)
	}
	var sumDur int64
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		for c, v := range t.Fact {
			if v.IsNull() {
				st.Cols[c].Nulls++
				continue
			}
			counts[c][v]++
		}
		d := t.T.Duration()
		sumDur += d
		if d > st.MaxDur {
			st.MaxDur = d
		}
		// Hull of all intervals, disjoint ones included.
		if i == 0 {
			st.Span = t.T
		} else {
			if t.T.Start < st.Span.Start {
				st.Span.Start = t.T.Start
			}
			if t.T.End > st.Span.End {
				st.Span.End = t.T.End
			}
		}
	}
	for c, m := range counts {
		st.Cols[c].Distinct = len(m)
		for _, n := range m {
			if n > st.Cols[c].MaxGroup {
				st.Cols[c].MaxGroup = n
			}
		}
		if len(m) > 0 {
			st.Cols[c].MeanGroup = float64(st.Tuples-st.Cols[c].Nulls) / float64(len(m))
		}
	}
	if st.Tuples > 0 {
		st.MeanDur = float64(sumDur) / float64(st.Tuples)
	}
	if span := st.Span.Duration(); span > 0 {
		st.Density = float64(sumDur) / float64(span)
	}
	return st
}

// KeyInfo summarizes the grouping structure of a join-key column set, the
// quantities the cost model consumes.
type KeyInfo struct {
	// Distinct is the key cardinality: exact for a single-column key,
	// the product of the per-column cardinalities capped at the tuple
	// count otherwise (the standard independence upper bound).
	Distinct int
	// MeanGroup and MaxGroup are the per-key group sizes. For
	// multi-column keys MaxGroup is the smallest per-column maximum (a
	// composite key can only split groups further).
	MeanGroup float64
	MaxGroup  int
	// Concurrency is the per-key temporal overlap factor
	// (Density / Distinct): the mean number of same-key tuples valid at
	// one instant. It is the group-size axis that drives the NJ window
	// fan-out.
	Concurrency float64
}

// Key derives the KeyInfo for the column set of one side of an equi-join:
// non-empty, and resolved against this schema by the caller.
func (s *Stats) Key(cols []int) KeyInfo {
	k := KeyInfo{Distinct: 1, MaxGroup: s.Cols[cols[0]].MaxGroup}
	for _, c := range cols {
		cs := &s.Cols[c]
		d := max(cs.Distinct, 1)
		if k.Distinct > s.Tuples/d { // cap the product at Tuples
			k.Distinct = s.Tuples
		} else {
			k.Distinct *= d
		}
		k.MaxGroup = min(k.MaxGroup, cs.MaxGroup)
	}
	if k.Distinct < 1 {
		k.Distinct = 1
	}
	if s.Tuples > 0 {
		k.MeanGroup = float64(s.Tuples) / float64(k.Distinct)
		k.Concurrency = s.Density / float64(k.Distinct)
	}
	return k
}

// Render writes the profile in the \stats builtin's layout.
func (s *Stats) Render(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d tuples, %d columns\n", name, s.Tuples, len(s.Cols))
	for _, c := range s.Cols {
		fmt.Fprintf(&b, "  %s: %d distinct, %d null, group mean %.1f max %d\n",
			c.Name, c.Distinct, c.Nulls, c.MeanGroup, c.MaxGroup)
	}
	fmt.Fprintf(&b, "  time: span %s, mean duration %.1f, max %d, overlap %.2f\n",
		s.Span, s.MeanDur, s.MaxDur, s.Density)
	return b.String()
}
