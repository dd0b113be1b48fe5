package tp

import (
	"fmt"
	"sort"

	"tpjoin/internal/interval"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
)

// This file implements the *declarative* point-wise semantics of TP joins
// with negation, directly transcribing the paper's Section I: at each time
// point, the result of a join with negation contains, for every valid
// tuple of the positive relation, its pairings with the valid matching
// tuples of the negative relation, and the probability that it matches
// none of them. It is deliberately simple and quadratic; the sweep
// algorithms in internal/core and the alignment baseline in internal/align
// are both validated against it.

// Op enumerates the TP join operators with negation (Table II).
type Op uint8

// The TP join operators.
const (
	OpInner Op = iota // r ⋈ s   (overlapping windows only; no negation)
	OpAnti            // r ▷ s
	OpLeft            // r ⟕ s
	OpRight           // r ⟖ s
	OpFull            // r ⟗ s
)

func (o Op) String() string {
	switch o {
	case OpInner:
		return "inner"
	case OpAnti:
		return "anti"
	case OpLeft:
		return "left-outer"
	case OpRight:
		return "right-outer"
	case OpFull:
		return "full-outer"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// PointRow is the lineage (and probability) of one output fact at one time
// point.
type PointRow struct {
	Fact    Fact
	Lineage *lineage.Expr
	Prob    float64
}

// PointMap is the point-wise view of a TP relation: fact key → time point →
// row. It is the canonical form in which two results are compared for
// semantic equality, independent of how they chunk time into intervals.
type PointMap map[string]map[interval.Time]PointRow

// Expand converts a relation into its point-wise view, computing Pr(λ) with
// the relation's base-event probabilities. It returns an error if the same
// fact occurs twice at the same time point (a violation of the sequenced-TP
// constraint that every valid result must satisfy).
func Expand(r *Relation) (PointMap, error) {
	ev := prob.NewBatchEvaluator(r.Probs)
	out := make(PointMap)
	for _, t := range r.Tuples {
		k := t.Fact.Key()
		m := out[k]
		if m == nil {
			m = make(map[interval.Time]PointRow)
			out[k] = m
		}
		p := ev.Prob(t.Lineage)
		for tt := t.T.Start; tt < t.T.End; tt++ {
			if prev, dup := m[tt]; dup {
				return nil, fmt.Errorf("tp: fact '%s' duplicated at time %d (lineages %v and %v)",
					t.Fact, tt, prev.Lineage, t.Lineage)
			}
			m[tt] = PointRow{Fact: t.Fact, Lineage: t.Lineage, Prob: p}
		}
	}
	return out, nil
}

// EqualProb compares two point-wise views by probability with tolerance
// tol, returning a descriptive error at the first difference.
func (m PointMap) EqualProb(o PointMap, tol float64) error {
	if err := m.subsetProb(o, tol, "left"); err != nil {
		return err
	}
	return o.subsetProb(m, tol, "right")
}

func (m PointMap) subsetProb(o PointMap, tol float64, side string) error {
	for k, times := range m {
		oTimes, ok := o[k]
		if !ok {
			var any PointRow
			for _, r := range times {
				any = r
				break
			}
			return fmt.Errorf("fact '%s' only on %s side", any.Fact, side)
		}
		for t, row := range times {
			orow, ok := oTimes[t]
			if !ok {
				return fmt.Errorf("fact '%s' at time %d only on %s side", row.Fact, t, side)
			}
			d := row.Prob - orow.Prob
			if d < -tol || d > tol {
				return fmt.Errorf("fact '%s' at time %d: prob %g vs %g", row.Fact, t, row.Prob, orow.Prob)
			}
		}
	}
	return nil
}

// EqualLineage compares two point-wise views by logical equivalence of the
// lineages (exponential in variable count; small inputs only).
func (m PointMap) EqualLineage(o PointMap) error {
	for k, times := range m {
		for t, row := range times {
			orow, ok := o[k][t]
			if !ok {
				return fmt.Errorf("fact '%s' at time %d missing on right side", row.Fact, t)
			}
			if !lineage.Equivalent(row.Lineage, orow.Lineage) {
				return fmt.Errorf("fact '%s' at time %d: lineage %v vs %v not equivalent",
					row.Fact, t, row.Lineage, orow.Lineage)
			}
		}
	}
	for k, times := range o {
		for t, row := range times {
			if _, ok := m[k][t]; !ok {
				return fmt.Errorf("fact '%s' at time %d missing on left side", row.Fact, t)
			}
		}
	}
	return nil
}

// RefJoin computes the point-wise reference result of a TP join with
// negation, per the paper's semantics. Output facts are r.F ∘ s.F for
// pairings, r.F ∘ NULLs (or plain r.F for the anti join) for negated and
// unmatched outputs, and symmetrically for the right/full variants.
func RefJoin(op Op, r, s *Relation, theta EquiTheta) PointMap {
	probs := MergeProbs(r, s)
	ev := prob.NewBatchEvaluator(probs)
	out := make(PointMap)

	add := func(f Fact, t interval.Time, lam *lineage.Expr) {
		k := f.Key()
		m := out[k]
		if m == nil {
			m = make(map[interval.Time]PointRow)
			out[k] = m
		}
		if _, dup := m[t]; dup {
			panic(fmt.Sprintf("tp: reference semantics produced duplicate fact '%s' at %d", f, t))
		}
		m[t] = PointRow{Fact: f, Lineage: lam, Prob: ev.Prob(lam)}
	}

	horizon := relevantPoints(r, s)

	// Positive side r against negative side s.
	if op != OpRight {
		for _, t := range horizon {
			for _, rt := range r.Tuples {
				if !rt.T.Contains(t) {
					continue
				}
				var matches []*lineage.Expr
				for _, st := range s.Tuples {
					if st.T.Contains(t) && theta.Match(rt.Fact, st.Fact) {
						matches = append(matches, st.Lineage)
						if op == OpLeft || op == OpFull || op == OpInner {
							add(rt.Fact.Concat(st.Fact), t, lineage.And(rt.Lineage, st.Lineage))
						}
					}
				}
				if op == OpInner {
					continue
				}
				negFact := rt.Fact.Concat(Nulls(len(s.Attrs)))
				if op == OpAnti {
					negFact = rt.Fact
				}
				if len(matches) == 0 {
					add(negFact, t, rt.Lineage) // unmatched
				} else {
					add(negFact, t, lineage.AndNot(rt.Lineage, lineage.Or(matches...))) // negating
				}
			}
		}
	}

	// Symmetric side for right/full outer joins.
	if op == OpRight || op == OpFull {
		for _, t := range horizon {
			for _, st := range s.Tuples {
				if !st.T.Contains(t) {
					continue
				}
				var matches []*lineage.Expr
				for _, rt := range r.Tuples {
					if rt.T.Contains(t) && theta.Match(rt.Fact, st.Fact) {
						matches = append(matches, rt.Lineage)
						if op == OpRight {
							add(rt.Fact.Concat(st.Fact), t, lineage.And(rt.Lineage, st.Lineage))
						}
					}
				}
				negFact := Nulls(len(r.Attrs)).Concat(st.Fact)
				if len(matches) == 0 {
					add(negFact, t, st.Lineage)
				} else {
					add(negFact, t, lineage.AndNot(st.Lineage, lineage.Or(matches...)))
				}
			}
		}
	}
	return out
}

// relevantPoints returns every time point at which some tuple of r or s is
// valid. Reference semantics only; test inputs are small.
func relevantPoints(r, s *Relation) []interval.Time {
	set := make(map[interval.Time]struct{})
	for _, rel := range []*Relation{r, s} {
		for _, t := range rel.Tuples {
			for tt := t.T.Start; tt < t.T.End; tt++ {
				set[tt] = struct{}{}
			}
		}
	}
	out := make([]interval.Time, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
